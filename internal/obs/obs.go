// Package obs is the observability layer of the serving tier: a
// race-safe metrics registry (labeled counters, gauges and log-bucketed
// histograms with exact Prometheus text exposition), a lightweight span
// API for per-request phase timing (Server-Timing and the /debug/requests
// ring feed off it), and the Collector hook the encode pipeline reports
// chunk/queue/gate measurements through.
//
// The registry deliberately reimplements the small slice of the
// Prometheus client this repository needs instead of importing it: the
// container bakes in no dependencies beyond the standard library, and
// the exposition format is simple enough that owning it buys an exact,
// lint-tested text writer (see ParseText/LintText) at a few hundred
// lines. Counters and gauges are float64s updated by atomic
// compare-and-swap; histograms are fixed-boundary buckets of atomic
// int64s cumulated at scrape time, so Observe is lock-free. Families
// expose in registration order, series within a family in sorted label
// order, which keeps scrapes deterministic and diffable.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// --- value cells -------------------------------------------------------------

// Counter is a monotonically increasing float64 series. The zero value
// is unregistered; obtain counters from a Registry. All methods are safe
// on a nil receiver (they no-op), so optional instrumentation needs no
// call-site guards.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increases the counter by v. Negative v is ignored — counters only
// go up; use a Gauge for values that move both ways.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 series that can move in both directions. Like
// Counter, all methods no-op on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by v (negative moves it down).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Value reports the current level.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Histogram counts observations into fixed, ascending upper-bound
// buckets (an implicit +Inf bucket catches the overflow) and tracks the
// observation sum — the Prometheus histogram model, cumulated at scrape
// time so Observe itself is a single atomic add. Methods no-op on nil.
type Histogram struct {
	bounds []float64      // ascending upper bounds, +Inf excluded
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	sum    atomic.Uint64  // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	addFloat(&h.sum, v)
}

// ObserveSince records the seconds elapsed since t0 — the common shape
// for latency series.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count reports the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns n exponential bucket bounds: start, start×factor,
// start×factor², ... — the log-bucketed shape latency series want.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DefTimeBuckets is the default latency bucket layout: 1ms to ~16s,
// doubling — wide enough to straddle both a cache hit served off disk
// and a 4K cold encode on a loaded box.
var DefTimeBuckets = ExpBuckets(0.001, 2, 15)

// --- registry ----------------------------------------------------------------

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry holds metric families and writes them in the Prometheus text
// exposition format. All methods are safe for concurrent use; scrapes
// run concurrently with updates.
type Registry struct {
	mu    sync.Mutex
	fams  []*family       // guarded by mu
	names map[string]bool // guarded by mu
}

type family struct {
	name, help, kind string
	labels           []string
	bounds           []float64      // histogram only
	fn               func() float64 // Func variants: evaluated at scrape

	mu     sync.Mutex
	series map[string]*series // guarded by mu
}

type series struct {
	values []string // label values, in declaration order
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) add(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !nameRE.MatchString(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	if r.names[f.name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	for _, l := range f.labels {
		if !labelRE.MatchString(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, f.name))
		}
	}
	r.names[f.name] = true
	//hdvlint:allow lockcheck -- f is not yet published; add is the registration point, no series reader exists
	f.series = make(map[string]*series)
	r.fams = append(r.fams, f)
}

// Counter registers a counter family with the given label names (none
// for a single unlabeled series). Duplicate names panic — metric
// registration is program structure, not input.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	f := &family{name: name, help: help, kind: "counter", labels: labels}
	r.add(f)
	v := &CounterVec{f: f}
	if len(labels) == 0 {
		v.With() // unlabeled families expose a zero-valued sample immediately
	}
	return v
}

// Gauge registers a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	f := &family{name: name, help: help, kind: "gauge", labels: labels}
	r.add(f)
	v := &GaugeVec{f: f}
	if len(labels) == 0 {
		v.With()
	}
	return v
}

// Histogram registers a histogram family with the given ascending
// bucket upper bounds (+Inf is implicit; nil selects DefTimeBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefTimeBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	f := &family{name: name, help: help, kind: "histogram", labels: labels,
		bounds: append([]float64(nil), bounds...)}
	r.add(f)
	v := &HistogramVec{f: f}
	if len(labels) == 0 {
		v.With()
	}
	return v
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the shape for totals owned elsewhere (the GOP cache's hit
// counts live in gopcache; mirroring them through a writable counter
// would just skew).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, kind: "counter", fn: fn})
}

// GaugeFunc registers a scrape-time gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, kind: "gauge", fn: fn})
}

// CounterVec is a counter family; With resolves one labeled series.
type CounterVec struct{ f *family }

// With returns the series for the given label values (created on first
// use), panicking on a label-count mismatch.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.with(values).c
}

// GaugeVec is a gauge family.
type GaugeVec struct{ f *family }

// With returns the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.with(values).g
}

// HistogramVec is a histogram family.
type HistogramVec struct{ f *family }

// With returns the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.with(values).h
}

func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s: %d label values for %d labels", f.name, len(values), len(f.labels)))
	}
	// The key is joined into a stack buffer and looked up as
	// f.series[string(buf)], which Go does without allocating; only a new
	// series pays for its key string.
	var buf [128]byte
	key := labelKey(buf[:0], values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[string(key)]
	if !ok {
		s = &series{values: append([]string(nil), values...)}
		switch f.kind {
		case "counter":
			s.c = &Counter{}
		case "gauge":
			s.g = &Gauge{}
		case "histogram":
			s.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
		}
		f.series[string(key)] = s
	}
	return s
}

// labelKey appends label values to dst, each followed by a separator
// that cannot appear in them unescaped (0xff is invalid UTF-8, and label
// values are opaque bytes here anyway).
func labelKey(dst []byte, values []string) []byte {
	for _, v := range values {
		dst = append(dst, v...)
		dst = append(dst, 0xff)
	}
	return dst
}

// --- exposition --------------------------------------------------------------

// WriteText writes every family in the Prometheus text exposition
// format (version 0.0.4): HELP and TYPE lines, then samples; histograms
// expand to cumulative _bucket series plus _sum and _count. The output
// passes LintText by construction.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.write(bw)
	}
	return bw.Flush()
}

func (f *family) write(w *bufio.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	if f.fn != nil {
		fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.fn()))
		return
	}
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make([]*series, len(keys))
	for i, k := range keys {
		ordered[i] = f.series[k]
	}
	f.mu.Unlock()
	for _, s := range ordered {
		switch f.kind {
		case "counter":
			fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(f.labels, s.values, "", ""), formatValue(s.c.Value()))
		case "gauge":
			fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(f.labels, s.values, "", ""), formatValue(s.g.Value()))
		case "histogram":
			var cum int64
			for i, ub := range f.bounds {
				cum += s.h.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					renderLabels(f.labels, s.values, "le", formatValue(ub)), cum)
			}
			cum += s.h.counts[len(f.bounds)].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				renderLabels(f.labels, s.values, "le", "+Inf"), cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, renderLabels(f.labels, s.values, "", ""), formatValue(s.h.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(f.labels, s.values, "", ""), cum)
		}
	}
}

// renderLabels renders {k1="v1",...}, appending the extra pair (the
// histogram le) when extraKey is non-empty; no labels renders as "".
func renderLabels(names, values []string, extraKey, extraVal string) string {
	if len(names) == 0 && extraKey == "" {
		return ""
	}
	out := "{"
	for i, n := range names {
		if i > 0 {
			out += ","
		}
		out += n + `="` + escapeLabel(values[i]) + `"`
	}
	if extraKey != "" {
		if len(names) > 0 {
			out += ","
		}
		out += extraKey + `="` + escapeLabel(extraVal) + `"`
	}
	return out + "}"
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}
