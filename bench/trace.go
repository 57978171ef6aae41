package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the index of the span that caused this one (-1 for an
// operation's root). Times are nanoseconds since the tracer started.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op_id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs share the call sites at no cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children's
// parent field.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNS: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// add records a span whose duration was measured elsewhere (a Server-Timing
// phase reported by the server): it ends now and starts dur earlier.
func (t *tracer) add(name string, op, parent int, dur time.Duration) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNS: now - int64(dur), EndNS: now})
	t.mu.Unlock()
}

// meanMS is the mean duration in milliseconds of the spans called name
// (0 when there are none).
func (t *tracer) meanMS(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.EndNS - s.StartNS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

// traceFile is what a traced run leaves on disk next to the binary.
type traceFile struct {
	Workload string                 `json:"workload"`
	Env      envInfo                `json:"env"`
	Metrics  map[string]metricValue `json:"metrics"`
	Spans    []span                 `json:"spans"`
}

func (t *tracer) write(path string, doc traceFile) error {
	t.mu.Lock()
	doc.Spans = t.spans
	t.mu.Unlock()
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// profileCPU runs fn under the runtime's CPU profiler and returns the leaf
// sample counts of the harness's own process.
func profileCPU(fn func()) (map[string]int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return leafSamples(buf.Bytes())
}

// --- small statistics -------------------------------------------------------

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// percentile is the nearest-rank p-th percentile (p in (0,100]).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quartileSpread is (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(v, n=4) (the exclusive method), the spread the
// acceptance rule is written in. It needs at least two values.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
