package obs

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Trace accumulates named, timed phases of one request. Handlers open a
// Span per stage (cache lookup, encode, cache commit, body write) and
// the finished trace renders as a Server-Timing header value or as the
// phase list in a /debug/requests record. Safe for concurrent use,
// though a request's phases normally come from one goroutine.
type Trace struct {
	now func() time.Time

	mu     sync.Mutex
	phases []Phase // guarded by mu
}

// Phase is one completed span, duration in milliseconds — the JSON shape
// /debug/requests exposes.
type Phase struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// NewTrace returns a trace on the real clock.
func NewTrace() *Trace { return &Trace{now: time.Now} }

// NewTraceClock returns a trace on an injected clock, for deterministic
// tests.
func NewTraceClock(now func() time.Time) *Trace { return &Trace{now: now} }

// Start opens a named span. End it to record the phase; an unended span
// records nothing.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, t0: t.now()}
}

// Span is one in-flight phase of a Trace.
type Span struct {
	t     *Trace
	name  string
	t0    time.Time
	ended bool
}

// End closes the span, records it on the trace, and returns its
// duration. Ending twice (or ending a nil span) is a no-op.
func (s *Span) End() time.Duration {
	if s == nil || s.ended {
		return 0
	}
	s.ended = true
	d := s.t.now().Sub(s.t0)
	s.t.Record(s.name, d)
	return d
}

// Record adds a completed phase the caller timed itself: work done in
// pieces inside another span (frame generation interleaved with the
// encode that pulls the frames) has no single start and end to bracket.
func (t *Trace) Record(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phases = append(t.phases, Phase{Name: name, MS: float64(d) / float64(time.Millisecond)})
	t.mu.Unlock()
}

// Phases returns the completed phases in completion order.
func (t *Trace) Phases() []Phase {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Phase(nil), t.phases...)
}

// ServerTiming renders the completed phases as a Server-Timing header
// value: `cache;dur=0.412, enc;dur=183.220, write;dur=5.001`. Empty
// traces render as "".
func (t *Trace) ServerTiming() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := ""
	for i, p := range t.phases {
		if i > 0 {
			out += ", "
		}
		out += p.Name + ";dur=" + strconv.FormatFloat(p.MS, 'f', 3, 64)
	}
	return out
}

var reqSeq atomic.Uint64

// NewRequestID returns a fresh 16-hex-char request identifier, falling
// back to a process-local sequence if the system randomness source
// fails (IDs must never be empty once a handler has promised one).
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req-" + strconv.FormatUint(reqSeq.Add(1), 10)
	}
	return hex.EncodeToString(b[:])
}
