package pipeline

import (
	"errors"
	"io"
	"sync"
)

// ErrAborted is returned by OrderedPool operations after Abort: the
// caller tore the pipeline down early (a client disconnected, a
// downstream stage failed) and in-flight work was discarded.
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
// Concurrency contract: one goroutine calls Submit and then Close
// exactly once (even after Abort); one goroutine calls Next until it
// returns io.EOF or an error. Abort is safe from any goroutine and
// idempotent. fn runs on the worker goroutines, concurrently: state it
// shares across calls needs its own synchronization.
type OrderedPool[I, O any] struct {
	gate *SliceGate
	fn   func(I) (O, error)
	drop func(I) // resource accounting for items discarded by Abort

	slots   chan struct{}
	work    chan *poolJob[I, O]
	order   chan *poolJob[I, O]
	aborted chan struct{}
	once    sync.Once

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
// gate's budget with at most window items in flight. drop, if non-nil,
// is called for items that Abort discards before fn ran (so callers can
// release per-item resources they account for at Submit time).
func NewOrderedPool[I, O any](gate *SliceGate, window int, fn func(I) (O, error), drop func(I)) *OrderedPool[I, O] {
	workers := gate.Workers()
	if window < workers {
		window = workers
	}
	p := &OrderedPool[I, O]{
		gate:    gate,
		fn:      fn,
		drop:    drop,
		slots:   make(chan struct{}, window),
		work:    make(chan *poolJob[I, O], window),
		order:   make(chan *poolJob[I, O], window),
		aborted: make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *OrderedPool[I, O]) worker() {
	for job := range p.work {
		if !p.gate.Acquire(p.aborted) {
			if p.drop != nil {
				p.drop(job.in)
			}
			job.done <- poolResult[O]{err: ErrAborted}
			continue
		}
		out, err := p.fn(job.in)
		p.gate.Release()
		job.done <- poolResult[O]{out: out, err: err}
	}
}

// Submit admits one item, blocking while the window is full. It returns
// ErrAborted (after dropping the item) once Abort has been called.
func (p *OrderedPool[I, O]) Submit(in I) error {
	job := &poolJob[I, O]{in: in, done: make(chan poolResult[O], 1)}
	select {
	case p.slots <- struct{}{}:
	case <-p.aborted:
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
// returns io.EOF; after Abort, ErrAborted.
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
	case <-p.aborted:
		return zero, ErrAborted
	}
	if !ok {
		return zero, io.EOF
	}
	var res poolResult[O]
	select {
	case res = <-job.done:
	case <-p.aborted:
		return zero, ErrAborted
	}
	if res.err != nil {
		return zero, res.err
	}
	p.holding = true
	return res.out, nil
}

// Abort tears the pool down early: blocked Submit and Next calls return
// ErrAborted and workers drop queued items instead of processing them.
// The producer must still call Close so the workers exit.
func (p *OrderedPool[I, O]) Abort() {
	p.once.Do(func() { close(p.aborted) })
}
