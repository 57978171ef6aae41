package stream

import (
	"context"
	"io"
	"sync"
	"time"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/obs"
	"hdvideobench/internal/pipeline"
)

// Encoder is the streaming encoder: Write accepts display-order frames,
// ReadPacket emits the coded packets in coding order, and a bounded
// window of closed-GOP chunks in flight keeps peak memory independent of
// sequence length. See the package comment for the scheduling model and
// the concurrency contract.
type Encoder struct {
	hdr    container.Header
	gop    int
	window int
	gate   *pipeline.SliceGate // the call's worker budget

	// chunked mode (workers > 1 and gop > 0)
	pool    *pipeline.OrderedPool[encChunk, []container.Packet]
	cur     []*frame.Frame // chunk being filled (writer goroutine only)
	written int            // frames accepted so far (writer goroutine only)
	factory pipeline.EncoderFactory
	idleMu  sync.Mutex
	idle    []codec.Encoder // Reset instances no chunk is using

	// serial mode: one persistent encoder driven inline by Write, which
	// holds a gate token for the length of each codec call.
	enc codec.Encoder
	out chan container.Packet

	// reader-side state
	pending []container.Packet

	closed bool
	teardown

	resident gauge
	col      *obs.Collector // nil = no collection
}

type encChunk struct {
	base   int
	frames []*frame.Frame
}

// NewEncoder builds a streaming encoder for the call whose context is
// ctx and whose cancel is cancel, on gate's worker budget. factory
// constructs the codec instances (in chunked mode one per chunk worker
// at most: a worker takes an idle instance, building one only when none
// is idle, and Resets it for the next chunk); gop is
// the closed-GOP chunk length in frames and window the maximum chunks in
// flight (<= 0 selects 2×workers). A one-worker gate or gop <= 0 selects
// the single-instance mode. Every instance schedules its slices and
// wavefront rows on the gate in both modes, and the gate's collector,
// when set, also receives the encoder's own measurements (chunk encode
// time, queue depth, drain stalls). The gate may be shared with other
// stages of the same call (core.Transcode shares it with its decoder).
func NewEncoder(ctx context.Context, cancel context.CancelCauseFunc, factory pipeline.EncoderFactory, gop int, gate *pipeline.SliceGate, window int) (*Encoder, error) {
	factory = gate.Encoders(factory)
	enc, err := factory()
	if err != nil {
		return nil, err
	}
	col := gate.Collector()
	e := &Encoder{
		hdr:      enc.Header(),
		gop:      gop,
		gate:     gate,
		teardown: teardown{ctx: ctx, cancel: cancel},
		col:      col,
	}
	if gate.Workers() <= 1 || gop <= 0 {
		e.window = normWindow(window, 1)
		e.enc = enc
		// The serial queue holds coded packets, not frames; size it in
		// GOP units so the writer can stay a window ahead of the reader.
		e.out = make(chan container.Packet, e.window*max(gop, 4))
		return e, nil
	}
	e.window = normWindow(window, gate.Workers())
	e.factory = factory
	e.idle = []codec.Encoder{enc} // the instance that supplied the header
	// done accounts a chunk out whether it was coded, failed, panicked or
	// was dropped by a teardown: its raw frames are released, and only
	// coded bytes travel onward.
	done := func(c encChunk) {
		e.resident.add(-len(c.frames))
		col.ChunkDone()
	}
	e.pool = pipeline.NewOrderedPool(e.ctx, gate, e.window,
		func(c encChunk) ([]container.Packet, error) {
			defer done(c)
			ce, err := e.takeInstance()
			if err != nil {
				return nil, err
			}
			//hdvlint:allow determinism -- collector timing only; the duration feeds metrics, never the bitstream
			t0 := time.Now()
			pkts, err := pipeline.EncodeChunk(ce, c.frames, c.base)
			//hdvlint:allow determinism -- collector timing only; the duration feeds metrics, never the bitstream
			col.ObserveChunkEncode(time.Since(t0))
			if err == nil { // a failed instance is dropped
				ce.Reset()
				e.idleMu.Lock()
				e.idle = append(e.idle, ce)
				e.idleMu.Unlock()
			}
			return pkts, err
		},
		done,
	)
	return e, nil
}

// takeInstance pops an idle codec instance or builds one. Chunk workers
// run under the gate, so a call builds at most min(workers, chunks).
func (e *Encoder) takeInstance() (codec.Encoder, error) {
	e.idleMu.Lock()
	n := len(e.idle)
	if n == 0 {
		e.idleMu.Unlock()
		return e.factory()
	}
	ce := e.idle[n-1]
	e.idle = e.idle[:n-1]
	e.idleMu.Unlock()
	return ce, nil
}

// Header describes the stream being produced (same header as a single
// codec instance: codec, dimensions, frame rate; Frames is zero, unknown
// upfront).
func (e *Encoder) Header() container.Header { return e.hdr }

// Window reports the resolved chunk window.
func (e *Encoder) Window() int { return e.window }

// PeakResident reports the high-water mark of raw input frames held by
// the encoder (chunked mode). The scheduler bounds it by
// (Window+1)×GOP: up to Window admitted chunks plus the chunk being
// filled. In serial mode frames pass straight into the codec and this
// reports zero.
func (e *Encoder) PeakResident() int { return e.resident.high() }

// Write accepts the next display-order frame. The encoder takes
// ownership of f (it is handed to a codec instance and released once its
// chunk is coded). Write blocks while the chunk window is full — the
// backpressure that bounds memory — and returns the stream's cause once
// it is torn down; a codec error here tears it down.
func (e *Encoder) Write(f *frame.Frame) error {
	if e.closed {
		return ErrClosed
	}
	// A dead stream must not keep accumulating frames: without this
	// check the chunked path would bump resident and buffer into the
	// current chunk between a teardown and the next full-chunk Submit.
	if e.ctx.Err() != nil {
		return context.Cause(e.ctx)
	}
	if e.pool == nil {
		var pkts []container.Packet
		err := e.held(e.gate, func() (err error) {
			pkts, err = e.enc.Encode(f)
			return err
		})
		if err != nil {
			return e.fail(err)
		}
		return e.push(pkts)
	}
	e.resident.add(1)
	e.cur = append(e.cur, f)
	e.written++
	if len(e.cur) == e.gop {
		return e.submit()
	}
	return nil
}

func (e *Encoder) submit() error {
	c := encChunk{base: e.written - len(e.cur), frames: e.cur}
	e.cur = nil
	// Queued before Submit so the gauge pairs with exactly one ChunkDone:
	// a rejected Submit routes the chunk through the pool's drop callback.
	e.col.ChunkQueued()
	if err := e.pool.Submit(c); err != nil {
		return e.fail(err)
	}
	return nil
}

// push queues serial-mode packets for the reader until a teardown.
func (e *Encoder) push(pkts []container.Packet) error {
	for _, p := range pkts {
		select {
		case e.out <- p:
		case <-e.ctx.Done():
			return context.Cause(e.ctx)
		}
	}
	return nil
}

// Close flushes the final (possibly partial) chunk and marks the end of
// input; ReadPacket drains the remaining packets and then reports
// io.EOF. Close must be called exactly once from the writer side, even
// after an error or an Abort.
func (e *Encoder) Close() error {
	if e.closed {
		return ErrClosed
	}
	e.closed = true
	if e.pool == nil {
		err := e.flushSerial()
		close(e.out) // after the cause is set: the reader checks it at the close
		return err
	}
	var err error
	if len(e.cur) > 0 {
		err = e.submit()
	}
	e.pool.Close()
	return err
}

// flushSerial drains the serial encoder under a token and queues what
// it held back.
func (e *Encoder) flushSerial() error {
	var pkts []container.Packet
	err := e.held(e.gate, func() (err error) {
		pkts, err = e.enc.Flush()
		return err
	})
	if err != nil {
		return e.fail(err)
	}
	return e.push(pkts)
}

// ReadPacket returns the next packet in coding order, blocking until one
// is available. It reports io.EOF after Close once everything has been
// drained. A worker failure it meets tears the stream down, so a blocked
// writer unblocks too, and is returned; errors are sticky.
func (e *Encoder) ReadPacket() (container.Packet, error) {
	if err := e.dead(); err != nil {
		return container.Packet{}, err
	}
	if e.pool == nil {
		select {
		case p, ok := <-e.out:
			if ok {
				return p, nil
			}
			return container.Packet{}, e.readErr(io.EOF)
		case <-e.ctx.Done():
			return container.Packet{}, e.dead()
		}
	}
	for len(e.pending) == 0 {
		pkts, err := e.next()
		if err != nil {
			return container.Packet{}, e.readErr(err)
		}
		e.pending = pkts
	}
	p := e.pending[0]
	e.pending = e.pending[1:]
	return p, nil
}

// next pulls the next chunk off the ordered drain, timing the wait when
// a collector is attached: near-zero when the pool runs ahead of the
// consumer, the head-of-line stall otherwise.
func (e *Encoder) next() ([]container.Packet, error) {
	if e.col == nil {
		return e.pool.Next()
	}
	//hdvlint:allow determinism -- collector timing only; the duration feeds metrics, never the bitstream
	t0 := time.Now()
	pkts, err := e.pool.Next()
	//hdvlint:allow determinism -- collector timing only; the duration feeds metrics, never the bitstream
	e.col.ObserveDrainStall(time.Since(t0))
	return pkts, err
}
