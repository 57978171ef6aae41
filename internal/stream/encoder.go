package stream

import (
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

	// serial mode: one persistent encoder driven inline by Write, which
	// holds a gate token for the length of each codec call.
	enc codec.Encoder
	out chan container.Packet

	// reader-side state
	pending   []container.Packet
	chunkHold []container.Packet // ReadChunk serial mode: held-back GOP opener
	rerr      error

	closed   bool
	closeErr error // serial mode: set before out is closed

	closeOut sync.Once
	aborted  chan struct{}
	abortOne sync.Once

	resident gauge
	col      *obs.Collector // nil = no collection
}

type encChunk struct {
	base   int
	frames []*frame.Frame
}

// NewEncoder builds a streaming encoder on gate's worker budget. factory
// constructs the codec instances (one per chunk in chunked mode); gop is
// the closed-GOP chunk length in frames and window the maximum chunks in
// flight (<= 0 selects 2×workers). A one-worker gate or gop <= 0 selects
// the single-instance mode. Every instance schedules its slices and
// wavefront rows on the gate in both modes, and the gate's collector,
// when set, also receives the encoder's own measurements (chunk encode
// time, queue depth, drain stalls). The gate may be shared with other
// stages of the same call (core.Transcode shares it with its decoder).
func NewEncoder(factory pipeline.EncoderFactory, gop int, gate *pipeline.SliceGate, window int) (*Encoder, error) {
	factory = gate.Encoders(factory)
	enc, err := factory()
	if err != nil {
		return nil, err
	}
	col := gate.Collector()
	e := &Encoder{
		hdr:     enc.Header(),
		gop:     gop,
		gate:    gate,
		aborted: make(chan struct{}),
		col:     col,
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
	e.pool = pipeline.NewOrderedPool(gate, e.window,
		func(c encChunk) ([]container.Packet, error) {
			defer col.ChunkDone()
			// The instance that supplied the header codes the first chunk.
			ce := enc
			if c.base != 0 {
				var err error
				if ce, err = factory(); err != nil {
					e.resident.add(-len(c.frames))
					return nil, err
				}
			}
			//hdvlint:allow determinism -- collector timing only; the duration feeds metrics, never the bitstream
			t0 := time.Now()
			pkts, err := pipeline.EncodeChunk(ce, c.frames, c.base)
			//hdvlint:allow determinism -- collector timing only; the duration feeds metrics, never the bitstream
			col.ObserveChunkEncode(time.Since(t0))
			// The chunk's raw frames are released here, whether or not
			// the encode succeeded; only coded bytes travel onward.
			e.resident.add(-len(c.frames))
			return pkts, err
		},
		func(c encChunk) { // dropped on abort, never coded
			e.resident.add(-len(c.frames))
			col.ChunkDone()
		},
	)
	return e, nil
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
// backpressure that bounds memory — and returns ErrAborted once the
// stream is torn down.
func (e *Encoder) Write(f *frame.Frame) error {
	if e.closed {
		return ErrClosed
	}
	select {
	case <-e.aborted:
		// A dead stream must not keep accumulating frames: without this
		// check the chunked path would bump resident and buffer into the
		// current chunk between an Abort and the writer noticing (the
		// abort only surfaced at the next full-chunk Submit).
		return ErrAborted
	default:
	}
	if e.pool == nil {
		if e.closeErr != nil {
			return e.closeErr
		}
		if !e.gate.Acquire(e.aborted) {
			return ErrAborted
		}
		pkts, err := e.enc.Encode(f)
		e.gate.Release()
		if err != nil {
			e.closeErr = err
			return err
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
	return e.pool.Submit(c)
}

// push queues serial-mode packets for the reader, honoring aborts.
func (e *Encoder) push(pkts []container.Packet) error {
	for _, p := range pkts {
		select {
		case e.out <- p:
		case <-e.aborted:
			return ErrAborted
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
		err := e.closeErr
		if err == nil {
			err = e.flushSerial()
			e.closeErr = err
		}
		e.closeOut.Do(func() { close(e.out) })
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
	if !e.gate.Acquire(e.aborted) {
		return ErrAborted
	}
	pkts, err := e.enc.Flush()
	e.gate.Release()
	if err != nil {
		return err
	}
	return e.push(pkts)
}

// ReadPacket returns the next packet in coding order, blocking until one
// is available. It reports io.EOF after Close once everything has been
// drained. On a worker failure it returns the error and aborts the
// stream so a blocked writer unblocks too; errors are sticky.
func (e *Encoder) ReadPacket() (container.Packet, error) {
	if e.rerr != nil {
		return container.Packet{}, e.rerr
	}
	select { // an aborted stream is dead even if coded data remains
	case <-e.aborted:
		e.rerr = ErrAborted
		return container.Packet{}, e.rerr
	default:
	}
	if e.pool == nil {
		select {
		case p, ok := <-e.out:
			if !ok {
				e.rerr = io.EOF
				if e.closeErr != nil {
					e.rerr = e.closeErr
				}
				return container.Packet{}, e.rerr
			}
			return p, nil
		case <-e.aborted:
			e.rerr = ErrAborted
			return container.Packet{}, e.rerr
		}
	}
	for len(e.pending) == 0 {
		pkts, err := e.next()
		if err != nil {
			if err == io.EOF {
				e.rerr = io.EOF
			} else {
				e.rerr = err
				e.Abort() // unblock the writer; the stream is dead
			}
			return container.Packet{}, e.rerr
		}
		e.pending = pkts
	}
	p := e.pending[0]
	e.pending = e.pending[1:]
	return p, nil
}

// ReadChunk returns the packets of the next whole closed-GOP chunk in
// coding order — the chunk-granular tap that lets a caller observe GOP
// boundaries without re-parsing the stream (the fill unit of the
// hdvserve disk cache, which records each chunk's byte offset for
// range/seek serving). In chunked mode a chunk is exactly the
// scheduler's unit; in serial mode packets are grouped at the I packets
// that open each closed GOP, so both modes agree for the same gop. With
// gop <= 0 the whole stream is one chunk. Same contract as ReadPacket
// (io.EOF after Close, sticky errors, abort on worker failure); do not
// interleave ReadChunk and ReadPacket mid-chunk.
func (e *Encoder) ReadChunk() ([]container.Packet, error) {
	if e.pool != nil {
		if e.rerr != nil {
			return nil, e.rerr
		}
		select {
		case <-e.aborted:
			e.rerr = ErrAborted
			return nil, e.rerr
		default:
		}
		if len(e.pending) > 0 { // remainder of a ReadPacket-opened chunk
			pkts := e.pending
			e.pending = nil
			return pkts, nil
		}
		for {
			pkts, err := e.next()
			if err != nil {
				if err == io.EOF {
					e.rerr = io.EOF
				} else {
					e.rerr = err
					e.Abort() // unblock the writer; the stream is dead
				}
				return nil, e.rerr
			}
			if len(pkts) > 0 {
				return pkts, nil
			}
		}
	}
	// Serial mode: group packets at GOP-opening I frames, holding the
	// opener of the next chunk across calls.
	chunk := e.chunkHold
	e.chunkHold = nil
	for {
		p, err := e.ReadPacket()
		if err == io.EOF {
			if len(chunk) > 0 {
				return chunk, nil
			}
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		if p.Type == container.FrameI && len(chunk) > 0 {
			e.chunkHold = append(e.chunkHold, p)
			return chunk, nil
		}
		chunk = append(chunk, p)
	}
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

// Abort tears the stream down early (client gone, downstream failure):
// pending chunks are dropped, and blocked Write/ReadPacket calls return
// ErrAborted. Safe from any goroutine; idempotent. The writer must still
// call Close.
func (e *Encoder) Abort() {
	e.abortOne.Do(func() { close(e.aborted) })
	if e.pool != nil {
		e.pool.Abort()
	}
}
