package pipeline

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/obs"
)

// SliceGate is the worker budget of one encode or decode call: a bank of
// `workers` tokens shared by all three axes of parallelism — GOP chunks,
// the slices of a frame, and the wavefront rows of a slice. One rule
// keeps the budget: a goroutine holds exactly one token while it is
// inside a codec call, and idle tokens go to whoever dispatches next.
//
//   - Whoever drives a codec instance — a chunk worker of an
//     OrderedPool, or the caller of a single persistent instance — takes
//     its token with the blocking Acquire and gives it back with Release
//     as soon as the call returns; it never holds one while parked on a
//     window or a channel.
//   - Slice jobs (Run) and wavefront row helpers (Wavefront) take theirs
//     without blocking: a job that finds the bank empty runs inline on
//     its dispatcher, which already holds a token.
//
// So at most `workers` goroutines are ever inside codec code, whatever
// the mix: while every chunk worker is busy the bank is empty and frames
// code exactly as they would serially; the moment a chunk worker runs
// out of chunks its token is back in the bank, and the next frame of any
// chunk still running fans its slices and rows out onto it. Slices merge
// by index and the wavefront computes the serial values, so the coded
// output is identical for every token schedule — only wall-clock
// changes.
//
// A gate built for one worker is the serial path: Encoders/Decoders
// leave the instances on their inline runners. It banks its one token
// like any other gate, so stages of one call that run side by side —
// the rungs of a ladder, the two halves of a transcode — take turns on
// it and still keep to one codec goroutine.
type SliceGate struct {
	workers int
	tokens  chan struct{}
	col     *obs.Collector
}

// NewSliceGate returns a bank of workers tokens; workers <= 1 yields the
// one-token serial gate.
func NewSliceGate(workers int) *SliceGate {
	workers = max(workers, 1)
	g := &SliceGate{workers: workers, tokens: make(chan struct{}, workers)}
	for i := 0; i < workers; i++ {
		g.tokens <- struct{}{}
	}
	return g
}

// Workers reports the budget the gate was built with (at least 1).
func (g *SliceGate) Workers() int { return g.workers }

// Observe points the gate's measurements at a collector (nil disables
// them, the default) and returns the gate for chaining at construction:
// spawned-vs-inline slice counts, the dispatcher's straggler wait and
// the wavefront's depth and parking time. Slice jobs and row helpers
// never wait for a token — they run inline instead — so "time lost to
// the budget" surfaces as the post-dispatch wait for spawned slices plus
// the inline share, not as an acquire latency.
func (g *SliceGate) Observe(col *obs.Collector) *SliceGate {
	g.col = col
	return g
}

// Collector reports the collector set by Observe, so the stages built on
// a gate report to the same place as the gate itself.
func (g *SliceGate) Collector() *obs.Collector { return g.col }

// Acquire takes the calling goroutine's token, blocking until one is
// free. ctx is the context of the call the token would work for: once
// it is cancelled Acquire returns false, holding nothing, even with a
// token free. A goroutine parked here is handed the next token
// released, ahead of any slice or row that would try for it.
func (g *SliceGate) Acquire(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	select {
	case <-g.tokens:
		return true
	case <-ctx.Done():
		return false
	}
}

// Release returns the token taken by Acquire.
func (g *SliceGate) Release() { g.tokens <- struct{}{} }

// tryAcquire takes a token only if one is free right now.
func (g *SliceGate) tryAcquire() bool {
	select {
	case <-g.tokens:
		return true
	default:
		return false
	}
}

// Run implements codec.SliceRunner for a caller that holds a token: jobs
// 1..n-1 each run on a goroutine of their own while tokens last (given
// back as each finishes) and inline otherwise; job 0 always runs on the
// caller. Run returns only after every job has completed; a panic in a
// spawned job is re-raised on the caller once the others are done.
func (g *SliceGate) Run(n int, job func(i int)) {
	if n <= 1 {
		if n == 1 {
			job(0)
		}
		return
	}
	var wg sync.WaitGroup
	var c caught
	for i := 1; i < n; i++ {
		if g.tryAcquire() {
			g.col.SliceSpawned()
			wg.Add(1)
			go func(i int) {
				defer func() {
					g.Release()
					wg.Done()
				}()
				defer c.catch(nil)
				job(i)
			}(i)
		} else {
			g.col.SliceInline()
			job(i)
		}
	}
	job(0)
	if g.col == nil {
		wg.Wait()
	} else {
		//hdvlint:allow determinism -- collector timing only; the duration feeds metrics, never the bitstream
		t0 := time.Now()
		wg.Wait()
		//hdvlint:allow determinism -- collector timing only; the duration feeds metrics, never the bitstream
		g.col.ObserveGateWait(time.Since(t0))
	}
	c.rethrow()
}

// caught holds the first panic of the helper goroutines of one dispatch
// (slice jobs, wavefront rows) for the dispatcher, which re-raises it
// once every helper has exited: a codec panic then reaches the goroutine
// that owns the codec call, holding no helper's token.
type caught struct {
	once sync.Once
	val  any
}

// helperPanic is a recovered panic value with the stack of the helper
// it was raised on, which the re-raise on the dispatcher would lose.
type helperPanic struct {
	val   any
	stack []byte
}

func (p helperPanic) String() string { return fmt.Sprintf("%v\n%s", p.val, p.stack) }

// catch is deferred by each helper: it recovers a panic, runs abort (if
// non-nil) so the other helpers stop, and keeps the first value.
func (c *caught) catch(abort func()) {
	r := recover()
	if r == nil {
		return
	}
	if abort != nil {
		abort()
	}
	if _, ok := r.(helperPanic); !ok {
		r = helperPanic{r, debug.Stack()}
	}
	c.once.Do(func() { c.val = r })
}

// rethrow re-raises the kept panic on the dispatcher; call it after the
// helpers have exited.
func (c *caught) rethrow() {
	if c.val != nil {
		panic(c.val)
	}
}

// Encoders wraps an encoder factory so every instance it creates
// schedules its slices and rows on the gate. Installing the wavefront
// runner is unconditional; encoders use it only when Config.Wavefront is
// set. A serial gate installs nothing: the codec's own inline runners
// are the fast path.
func (g *SliceGate) Encoders(f EncoderFactory) EncoderFactory {
	return func() (codec.Encoder, error) {
		e, err := f()
		if err == nil && g.workers > 1 {
			e.SetSliceRunner(g.Run)
			e.SetWavefrontRunner(g.Wavefront().Run)
		}
		return e, err
	}
}

// Decoders wraps a decoder factory the same way.
func (g *SliceGate) Decoders(f DecoderFactory) DecoderFactory {
	return func() (codec.Decoder, error) {
		d, err := f()
		if err == nil && g.workers > 1 {
			d.SetSliceRunner(g.Run)
		}
		return d, err
	}
}
