package stream

import (
	"context"
	"fmt"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/pipeline"
)

// Decoder is the streaming decoder: Write accepts coding-order packets,
// ReadFrame emits decoded frames in display order, and a bounded window
// of segments in flight keeps peak memory independent of stream length.
// See the package comment for the scheduling model and the concurrency
// contract.
//
// A container.GOPTracker cuts segments on the fly: a mid-stream I packet
// that displays after everything seen so far opens one. There the
// container's closed-GOP semantics guarantee a reference reset, so each
// segment decodes independently; a packet that displays before its
// segment's I frame (an open GOP the container forbids) fails cleanly.
//
// Every segment takes its turn in one ordered pool. A complete segment
// is decoded by a pool worker on an instance of its own. A streamed
// segment is decoded by the writer, a token per Decode call, into a
// channel the pool hands the reader in the segment's turn, so only the
// codec's own references stay resident. A segment is streamed on a
// one-worker gate (then the whole stream is one segment) or once it
// reaches FallbackPackets packets without a boundary; the next boundary
// I frame ends it and re-arms the pool, so a stream with one
// pathological segment pays for that segment only.
type Decoder struct {
	window int
	// gate is the call's one worker budget: the pool's workers, the
	// writer decoding a streamed segment, and the slices inside any of
	// their frames all hold its tokens.
	gate     *pipeline.SliceGate
	factory  pipeline.DecoderFactory // instances scheduled on gate
	streamAt int                     // packets that make a segment streamed

	pool *pipeline.OrderedPool[decSegment, decSegment]

	// Writer-side state.
	first  codec.Decoder        // built by NewDecoder for the first segment
	cur    []container.Packet   // segment being collected
	gops   container.GOPTracker // where the segments open
	dec    codec.Decoder        // the streamed segment's instance, if any
	out    chan *frame.Frame    // the streamed segment's frames
	rearms int
	closed bool

	// Reader-side state.
	pending  []*frame.Frame      // a complete segment's frames
	streamed <-chan *frame.Frame // a streamed segment's frames

	teardown

	resident gauge
}

// decSegment is one segment in the pool: coding-order packets a worker
// decodes (on dec when the segment carries the first instance) into
// frames, or a streamed segment's channel, passed through to the reader.
type decSegment struct {
	pkts   []container.Packet
	dec    codec.Decoder
	frames []*frame.Frame
	out    chan *frame.Frame
}

// NewDecoder builds a streaming decoder for the call whose context is
// ctx and whose cancel is cancel, on gate's worker budget. factory
// constructs the codec instances, one per segment, and window is the
// maximum segments in flight (<= 0 selects 2×workers). The first
// instance is built here, so a header no codec accepts fails the call
// before any output exists. On a one-worker gate the whole stream is one
// streamed segment, which handles any stream — open-ended single-segment
// ones included — at the codec's own constant memory. Like the
// Encoder's, the gate may be shared with the other stages of one call.
func NewDecoder(ctx context.Context, cancel context.CancelCauseFunc, factory pipeline.DecoderFactory, gate *pipeline.SliceGate, window int) (*Decoder, error) {
	factory = gate.Decoders(factory)
	first, err := factory()
	if err != nil {
		return nil, err
	}
	d := &Decoder{
		gate:     gate,
		factory:  factory,
		window:   normWindow(window, gate.Workers()),
		streamAt: FallbackPackets,
		first:    first,
		teardown: teardown{ctx: ctx, cancel: cancel},
	}
	if gate.Workers() <= 1 {
		d.streamAt = 1
	}
	d.pool = pipeline.NewOrderedPool(ctx, gate, d.window, d.decodeSegment, nil)
	return d, nil
}

// decodeSegment is the pool's work: it decodes a complete segment and
// passes a streamed one through.
func (d *Decoder) decodeSegment(s decSegment) (decSegment, error) {
	if s.out != nil {
		return s, nil
	}
	base := s.pkts[0].DisplayIndex
	for _, p := range s.pkts {
		if p.DisplayIndex < base {
			return s, fmt.Errorf("stream: packet (type %c, display %d) displays before its segment's I frame (display %d): open-GOP or malformed stream",
				p.Type, p.DisplayIndex, base)
		}
	}
	dec, err := d.instance(s.dec)
	if err != nil {
		return s, err
	}
	frames, err := pipeline.DecodeSegment(dec, s.pkts)
	if err != nil {
		return s, err
	}
	// Decoded frames are the expensive payload from here on; account
	// them until ReadFrame hands each one to the caller.
	d.resident.add(len(frames))
	return decSegment{frames: frames}, nil
}

// instance returns dec, the instance NewDecoder built, or a new one.
func (d *Decoder) instance(dec codec.Decoder) (codec.Decoder, error) {
	if dec != nil {
		return dec, nil
	}
	return d.factory()
}

// Window reports the resolved segment window.
func (d *Decoder) Window() int { return d.window }

// PeakResident reports the high-water mark of decoded frames held for
// complete segments, bounded by (Window+1)×GOP for a closed-GOP stream.
// A streamed segment's frames move one at a time and are not counted.
func (d *Decoder) PeakResident() int { return d.resident.high() }

// Rearms reports how many streamed segments a boundary I frame ended,
// handing the segments after it back to the pool's workers.
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
	// At a closed-GOP boundary no references cross, so the segment
	// before it is complete. With one worker no boundary ends the
	// stream's one segment.
	opens := d.gops.Opens(p) && d.streamAt > 1
	if d.out != nil {
		if !opens {
			return d.decode(p)
		}
		if err := d.endStreamed(); err != nil {
			return err
		}
		d.rearms++
	} else if opens && len(d.cur) > 0 {
		if err := d.submit(); err != nil {
			return err
		}
	}
	d.cur = append(d.cur, p)
	if len(d.cur) >= d.streamAt {
		return d.startStreamed()
	}
	return nil
}

func (d *Decoder) submit() error {
	s := decSegment{pkts: d.cur, dec: d.first}
	d.cur, d.first = nil, nil
	return d.pool.Submit(s)
}

// startStreamed turns the segment being collected into a streamed one.
// The segment starts at a reference reset (the stream head or a boundary
// I frame), so an instance counting display indices from its first
// packet replays the buffered packets and takes the rest as they come.
func (d *Decoder) startStreamed() error {
	dec, err := d.instance(d.first)
	if err != nil {
		return err
	}
	d.first = nil
	dec.SetPTSBase(d.cur[0].DisplayIndex)
	// The writer may run a window of frames ahead of the reader, as the
	// pool runs a window of segments ahead.
	out := make(chan *frame.Frame, d.window)
	if err := d.pool.Submit(decSegment{out: out}); err != nil {
		return err
	}
	d.dec, d.out = dec, out
	pkts := d.cur
	d.cur = nil
	for _, p := range pkts {
		if err := d.decode(p); err != nil {
			return err
		}
	}
	return nil
}

// decode runs one packet of the streamed segment under a token and
// queues the frames it completes.
func (d *Decoder) decode(p container.Packet) error {
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

// endStreamed drains the streamed segment's reorder buffer under a
// token, queues the frames it held back and closes the segment's
// channel.
func (d *Decoder) endStreamed() error {
	var frames []*frame.Frame
	err := d.held(d.gate, func() error {
		frames = d.dec.Flush()
		return nil
	})
	if err == nil {
		err = d.push(frames)
	}
	close(d.out) // after the cause is set: the reader checks it at the close
	d.dec, d.out = nil, nil
	return err
}

// push queues a streamed segment's frames for the reader until a
// teardown.
func (d *Decoder) push(frames []*frame.Frame) error {
	for _, f := range frames {
		select {
		case d.out <- f:
		case <-d.ctx.Done():
			return context.Cause(d.ctx)
		}
	}
	return nil
}

// Close ends the last segment and marks the end of input; ReadFrame
// drains the remaining frames and then reports io.EOF. Close must be
// called exactly once from the writer side, even after an error or an
// Abort.
func (d *Decoder) Close() error {
	if d.closed {
		return ErrClosed
	}
	d.closed = true
	var err error
	if d.out != nil {
		err = d.endStreamed()
	} else if len(d.cur) > 0 {
		err = d.submit()
	}
	d.pool.Close()
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
		if d.streamed != nil {
			select {
			case f, ok := <-d.streamed:
				if ok {
					return f, nil
				}
				d.streamed = nil // the segment ended (a boundary or Close)
			case <-d.ctx.Done():
				return nil, d.dead()
			}
			continue
		}
		if len(d.pending) > 0 {
			f := d.pending[0]
			d.pending = d.pending[1:]
			d.resident.add(-1)
			return f, nil
		}
		s, err := d.pool.Next()
		if err != nil {
			return nil, d.readErr(err)
		}
		d.pending, d.streamed = s.frames, s.out
	}
}
