package stream

import (
	"context"
	"fmt"
	"io"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/pipeline"
)

// Decoder is the streaming decoder: Write accepts coding-order packets,
// ReadFrame emits decoded frames in display order, and a bounded window
// of closed-GOP segments in flight keeps peak memory independent of
// stream length. See the package comment for the scheduling model and
// the concurrency contract.
//
// Segment boundaries are detected on the fly by a container.GOPTracker:
// a mid-stream I packet that displays after everything seen so far opens
// a new segment. That is exactly where the container's closed-GOP
// semantics guarantee a reference reset, so each segment decodes
// independently; a packet that displays before its segment's I frame
// (an open GOP the container forbids) fails with a clean error.
//
// A segment that reaches FallbackPackets packets without a boundary —
// the paper's first-frame-only-intra setting, or any stream whose I
// frames stop coming — switches the decoder to a serial single-instance
// mode, preserving the memory bound. The serial instance sits on the
// same gate as the segment pools: the writer takes one token per Decode
// call and the frame's slices take whatever else is free, so while the
// closed pool's last segments are still decoding the fallback simply
// gets less of the budget, never a second budget of its own. The
// fallback is not forever: when a later boundary I frame does arrive,
// the decoder re-arms — the serial instance is flushed and a fresh
// segment pool takes over — so a stream with one pathological segment
// pays for that segment only. The writer hands each phase (pool or
// serial channel) to the reader in order through an internal phase
// queue. Every pool, re-armed ones included, is built on the call's
// context, so one teardown reaches them all.
type Decoder struct {
	window int
	// gate is the call's one worker budget: segment workers of every
	// pool, the writer driving a serial instance, and the slices inside
	// any of their frames all hold its tokens.
	gate    *pipeline.SliceGate
	factory pipeline.DecoderFactory // instances scheduled on gate

	// Writer-side state. Exactly one of pool/dec is active at a time in
	// chunked mode; serialOnly (a one-worker gate) keeps dec forever.
	pool       *pipeline.OrderedPool[decSegment, []*frame.Frame]
	cur        []container.Packet   // segment being collected
	gops       container.GOPTracker // where the segments open
	dec        codec.Decoder        // serial instance (fallback or serialOnly)
	out        chan *frame.Frame    // serial phase channel
	serialBase int                  // display rebase for the serial instance
	serialOnly bool
	rearms     int
	closed     bool

	// phases hands each decode phase to the reader in consumption order.
	phases chan decPhase

	// reader-side state
	rp      decPhase
	haveRP  bool
	pending []*frame.Frame

	teardown

	resident gauge
}

// decPhase is one reader-visible stage of the stream: a segment pool or
// a serial frame channel.
type decPhase struct {
	pool *pipeline.OrderedPool[decSegment, []*frame.Frame]
	out  chan *frame.Frame
}

type decSegment struct {
	pkts []container.Packet
}

// NewDecoder builds a streaming decoder for the call whose context is
// ctx and whose cancel is cancel, on gate's worker budget. factory
// constructs the codec instances (one per closed-GOP segment in chunked
// mode) and window is the maximum segments in flight (<= 0 selects
// 2×workers). A one-worker gate selects the serial single-instance mode,
// which handles any stream — including open-ended single-segment ones —
// at the codec's own constant memory. Like the Encoder's, the gate may
// be shared with the other stages of one call.
func NewDecoder(ctx context.Context, cancel context.CancelCauseFunc, factory pipeline.DecoderFactory, gate *pipeline.SliceGate, window int) (*Decoder, error) {
	d := &Decoder{
		gate:     gate,
		factory:  gate.Decoders(factory),
		window:   normWindow(window, gate.Workers()),
		phases:   make(chan decPhase, 16),
		teardown: teardown{ctx: ctx, cancel: cancel},
	}
	if gate.Workers() <= 1 {
		dec, err := d.factory()
		if err != nil {
			return nil, err
		}
		d.serialOnly = true
		d.dec = dec
		d.out = make(chan *frame.Frame, d.window)
		d.phases <- decPhase{out: d.out}
		return d, nil
	}
	d.pool = d.newPool()
	d.phases <- decPhase{pool: d.pool}
	return d, nil
}

// newPool starts a fresh segment pool (the initial one, or a re-armed
// one after a serial fallback ends at a boundary I frame) on the
// call's context and the decoder's gate.
func (d *Decoder) newPool() *pipeline.OrderedPool[decSegment, []*frame.Frame] {
	return pipeline.NewOrderedPool(d.ctx, d.gate, d.window,
		func(s decSegment) ([]*frame.Frame, error) {
			base := s.pkts[0].DisplayIndex
			for _, p := range s.pkts {
				if p.DisplayIndex < base {
					return nil, fmt.Errorf("stream: packet (type %c, display %d) displays before its segment's I frame (display %d): open-GOP or malformed stream",
						p.Type, p.DisplayIndex, base)
				}
			}
			dec, err := d.factory()
			if err != nil {
				return nil, err
			}
			frames, err := pipeline.DecodeSegment(dec, s.pkts)
			if err != nil {
				return nil, err
			}
			// Decoded frames are the expensive payload from here on;
			// account them until ReadFrame hands each one to the caller.
			d.resident.add(len(frames))
			return frames, nil
		},
		nil,
	)
}

// pushPhase queues a phase for the reader until a teardown.
func (d *Decoder) pushPhase(ph decPhase) error {
	select {
	case d.phases <- ph:
		return nil
	case <-d.ctx.Done():
		return context.Cause(d.ctx)
	}
}

// Window reports the resolved segment window.
func (d *Decoder) Window() int { return d.window }

// PeakResident reports the high-water mark of decoded frames held by the
// decoder's segment pools, bounded by (Window+1)×GOP for a closed-GOP
// stream. Frames flowing through a serial phase move one at a time and
// are not counted.
func (d *Decoder) PeakResident() int { return d.resident.high() }

// Rearms reports how many times the decoder returned from the serial
// fallback to chunked mode at a boundary I frame.
func (d *Decoder) Rearms() int { return d.rearms }

// Write accepts the next coding-order packet, blocking while the segment
// window is full. It returns the stream's cause once the stream is torn
// down; a codec error here tears it down.
func (d *Decoder) Write(p container.Packet) error {
	if d.closed {
		return ErrClosed
	}
	if d.ctx.Err() != nil {
		return context.Cause(d.ctx)
	}
	if err := d.write(p); err != nil {
		return d.fail(err)
	}
	return nil
}

func (d *Decoder) write(p container.Packet) error {
	if d.serialOnly {
		return d.writeSerial(p)
	}
	opens := d.gops.Opens(p)
	if d.dec != nil { // serial fallback active
		if opens {
			return d.rearm(p)
		}
		return d.writeSerial(p)
	}
	// At a closed-GOP boundary no references cross, so the collected
	// segment is complete.
	if opens && len(d.cur) > 0 {
		if err := d.submit(); err != nil {
			return err
		}
	}
	d.cur = append(d.cur, p)
	if len(d.cur) >= FallbackPackets {
		return d.fallBackToSerial()
	}
	return nil
}

func (d *Decoder) writeSerial(p container.Packet) error {
	p.DisplayIndex -= d.serialBase
	var frames []*frame.Frame
	err := d.held(d.gate, func() (err error) {
		frames, err = d.dec.Decode(p)
		return err
	})
	if err != nil {
		return err
	}
	return d.push(frames)
}

// fallBackToSerial abandons GOP parallelism for the current segment:
// FallbackPackets packets arrived without a closed-GOP boundary, so
// segment decoding would buffer without bound. The segment always starts
// at a reference reset (the stream head, a boundary I frame, or a
// re-armed pool's first segment), so a persistent serial decoder —
// rebased to the segment's first display index — replays the compressed
// prefix and takes over. Closing the current pool only ends its input:
// the segments already admitted keep decoding on their workers and drain
// to the reader in order before the serial phase begins, so the serial
// instance competes with them for the gate's tokens until they finish.
func (d *Decoder) fallBackToSerial() error {
	dec, err := d.factory()
	if err != nil {
		return err
	}
	d.dec = dec
	d.serialBase = d.cur[0].DisplayIndex
	d.out = make(chan *frame.Frame, d.window)
	d.pool.Close()
	d.pool = nil
	if err := d.pushPhase(decPhase{out: d.out}); err != nil {
		return err
	}
	pkts := d.cur
	d.cur = nil
	for _, p := range pkts {
		if err := d.writeSerial(p); err != nil {
			return err
		}
	}
	return nil
}

// rearm ends the serial fallback at a boundary I frame: the serial
// decoder is flushed and retired, a fresh segment pool opens, and the
// boundary packet starts its first segment — the stream is chunk-
// parallel again (ROADMAP: closed-GOP streams with one over-long segment
// no longer decode single-threaded forever).
func (d *Decoder) rearm(p container.Packet) error {
	if err := d.flushSerial(); err != nil {
		return err
	}
	close(d.out)
	d.dec = nil
	d.out = nil
	d.rearms++
	d.pool = d.newPool()
	if err := d.pushPhase(decPhase{pool: d.pool}); err != nil {
		return err
	}
	d.cur = append(d.cur[:0:0], p)
	return nil
}

// flushSerial drains the serial instance's reorder buffer under a token
// and queues the frames it held back.
func (d *Decoder) flushSerial() error {
	var frames []*frame.Frame
	if err := d.held(d.gate, func() error {
		frames = d.dec.Flush()
		return nil
	}); err != nil {
		return err
	}
	return d.push(frames)
}

func (d *Decoder) submit() error {
	s := decSegment{pkts: d.cur}
	d.cur = nil
	return d.pool.Submit(s)
}

// push queues serial-phase frames for the reader, restoring the global
// display stamps a mid-stream fallback rebased away, until a teardown.
func (d *Decoder) push(frames []*frame.Frame) error {
	for _, f := range frames {
		f.PTS += d.serialBase
		select {
		case d.out <- f:
		case <-d.ctx.Done():
			return context.Cause(d.ctx)
		}
	}
	return nil
}

// Close flushes the final segment (or the serial decoder) and marks the
// end of input; ReadFrame drains the remaining frames and then reports
// io.EOF. Close must be called exactly once from the writer side, even
// after an error or an Abort.
func (d *Decoder) Close() error {
	if d.closed {
		return ErrClosed
	}
	d.closed = true
	var err error
	if d.dec != nil { // serial-only mode, or chunked mode inside a fallback
		err = d.flushSerial()
		close(d.out) // after the cause is set: the reader checks it at the close
	} else if d.pool != nil {
		if len(d.cur) > 0 {
			err = d.submit()
		}
		d.pool.Close()
	}
	close(d.phases)
	return err
}

// ReadFrame returns the next frame in display order, blocking until one
// is available. It reports io.EOF after Close once everything has been
// drained. A worker failure it meets tears the stream down, so a blocked
// writer unblocks too, and is returned; errors are sticky.
func (d *Decoder) ReadFrame() (*frame.Frame, error) {
	if err := d.dead(); err != nil {
		return nil, err
	}
	for {
		if !d.haveRP {
			select {
			case ph, ok := <-d.phases:
				if !ok {
					return nil, d.readErr(io.EOF)
				}
				d.rp = ph
				d.haveRP = true
			case <-d.ctx.Done():
				return nil, d.dead()
			}
		}
		if d.rp.pool != nil {
			for len(d.pending) == 0 {
				frames, err := d.rp.pool.Next()
				if err == io.EOF {
					d.haveRP = false
					break
				}
				if err != nil {
					return nil, d.readErr(err)
				}
				d.pending = frames
			}
			if len(d.pending) == 0 {
				continue // pool drained; move to the next phase
			}
			f := d.pending[0]
			d.pending = d.pending[1:]
			d.resident.add(-1)
			return f, nil
		}
		select {
		case f, ok := <-d.rp.out:
			if !ok {
				d.haveRP = false
				continue // serial phase ended (re-arm or Close)
			}
			return f, nil
		case <-d.ctx.Done():
			return nil, d.dead()
		}
	}
}
