package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
)

// ErrAborted is returned by OrderedPool operations once the context the
// pool was built on is cancelled: the call tore the pipeline down early
// (a client disconnected, a downstream stage failed) and in-flight work
// was discarded. The context's cause says why.
var ErrAborted = errors.New("pipeline: aborted")

// OrderedPool is the chunk scheduler: items are submitted one at a
// time, processed by a fixed set of workers — each holding one token of
// the pool's SliceGate while inside fn, and none while idle — and
// results come back in submission order through Next. Several pools (and
// other codec callers) may share one gate; together they never run more
// than gate.Workers() goroutines. At most window items are admitted and
// not yet consumed, so Submit applies backpressure — a producer that
// outruns the consumer blocks instead of buffering without bound. That
// window is what keeps the scheduler at constant memory (internal/stream
// builds its encoder and decoder on it).
//
// A pool lives on the call's context, and cancelling that context is its
// only teardown: blocked and later Submit and Next calls return
// ErrAborted, and workers drop queued items instead of processing them.
// A panic in fn is the item's error, with the stack, so it reaches the
// caller through Next like any other failure.
//
// Concurrency contract: one goroutine calls Submit and then Close
// exactly once (even after a cancel); one goroutine calls Next until it
// returns io.EOF or an error. fn runs on the worker goroutines,
// concurrently: state it shares across calls needs its own
// synchronization.
type OrderedPool[I, O any] struct {
	ctx  context.Context
	gate *SliceGate
	fn   func(I) (O, error)
	drop func(I) // resource accounting for items a cancel discards

	slots chan struct{}
	work  chan *poolJob[I, O]
	order chan *poolJob[I, O]

	holding bool // Next holds a slot for the result it returned last
}

type poolJob[I, O any] struct {
	in   I
	done chan poolResult[O] // buffered(1): workers never block on it
}

type poolResult[O any] struct {
	out O
	err error
}

// NewOrderedPool starts gate.Workers() goroutines running fn on the
// gate's budget with at most window items in flight, for the call whose
// context is ctx. drop, if non-nil, is called for items a cancel
// discards before fn ran (so callers can release per-item resources they
// account for at Submit time).
func NewOrderedPool[I, O any](ctx context.Context, gate *SliceGate, window int, fn func(I) (O, error), drop func(I)) *OrderedPool[I, O] {
	workers := gate.Workers()
	if window < workers {
		window = workers
	}
	p := &OrderedPool[I, O]{
		ctx:   ctx,
		gate:  gate,
		fn:    fn,
		drop:  drop,
		slots: make(chan struct{}, window),
		work:  make(chan *poolJob[I, O], window),
		order: make(chan *poolJob[I, O], window),
	}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *OrderedPool[I, O]) worker() {
	for job := range p.work {
		if !p.gate.Acquire(p.ctx) {
			if p.drop != nil {
				p.drop(job.in)
			}
			job.done <- poolResult[O]{err: ErrAborted}
			continue
		}
		job.done <- p.run(job.in)
	}
}

// run calls fn under the token the worker holds and gives the token
// back; a panic in fn becomes the item's error.
func (p *OrderedPool[I, O]) run(in I) (res poolResult[O]) {
	defer func() {
		p.gate.Release()
		if r := recover(); r != nil {
			res.err = fmt.Errorf("pipeline: worker panic: %v\n%s", r, debug.Stack())
		}
	}()
	res.out, res.err = p.fn(in)
	return res
}

// Submit admits one item, blocking while the window is full. It returns
// ErrAborted (after dropping the item) once the context is cancelled.
func (p *OrderedPool[I, O]) Submit(in I) error {
	job := &poolJob[I, O]{in: in, done: make(chan poolResult[O], 1)}
	select {
	case p.slots <- struct{}{}:
	case <-p.ctx.Done():
		if p.drop != nil {
			p.drop(in)
		}
		return ErrAborted
	}
	// Both channels have window capacity and a slot was acquired, so
	// neither send can block.
	p.work <- job
	p.order <- job
	return nil
}

// Close marks the end of input. It must be called exactly once after the
// final Submit (including after an aborted Submit); Next then drains the
// remaining results and reports io.EOF.
func (p *OrderedPool[I, O]) Close() {
	close(p.work)
	close(p.order)
}

// Next returns the result of the oldest unconsumed item, blocking until
// its worker finishes. The window slot of each result is released on the
// following Next call, so "in flight" covers submitted, processing and
// returned-but-not-yet-replaced items. After Close and a full drain it
// returns io.EOF; once the context is cancelled, ErrAborted.
func (p *OrderedPool[I, O]) Next() (O, error) {
	var zero O
	if p.holding {
		p.holding = false
		<-p.slots
	}
	var job *poolJob[I, O]
	var ok bool
	select {
	case job, ok = <-p.order:
	case <-p.ctx.Done():
		return zero, ErrAborted
	}
	if !ok {
		return zero, io.EOF
	}
	var res poolResult[O]
	select {
	case res = <-job.done:
	case <-p.ctx.Done():
		return zero, ErrAborted
	}
	if res.err != nil {
		return zero, res.err
	}
	p.holding = true
	return res.out, nil
}
