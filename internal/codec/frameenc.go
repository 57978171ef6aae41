package codec

import (
	"fmt"

	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/motion"
)

// FrameHooks are the calls both frame drivers make around a frame's
// slices (see the package comment for who may touch what, and when).
type FrameHooks interface {
	// BeginFrame runs before the frame's slices are dispatched. refs is
	// the driver's reference list as the frame will see it — already
	// emptied for an I frame; slices is how many slices the frame has.
	BeginFrame(refs *RefList, slices int)
	// EndFrame runs once every slice has returned, before recon's
	// borders are extended: the place for a whole-frame in-loop filter.
	// q is the frame's quantizer as the payload carries it.
	EndFrame(recon *frame.Frame, q int)
}

// SliceEncoder is the codec-specific half of a FrameEncoder.
type SliceEncoder interface {
	FrameHooks
	// WireQ maps a quantizer in Config.Q's MPEG scale (1..31) to the
	// quantizer this codec's payloads carry and its slices code with.
	WireQ(q int) int
	// EncodeSlice codes rows span of src as slice i, reconstructs them
	// into recon and returns the slice's bitstream, which must stay
	// valid until the next EncodeSlice(i, …). q is the slice's WireQ
	// quantizer; wf, when non-nil, may run the slice's macroblock grid;
	// tap, when non-nil, receives the full-pel forward vector of every
	// macroblock; hint, when non-nil, is a field to seed searches from.
	EncodeSlice(i int, src, recon *frame.Frame, ftype container.FrameType, span SliceSpan,
		q int, wf WavefrontRunner, tap, hint *motion.Field) []byte
	// NewReference prepares a reconstruction, borders already extended,
	// for the searches that will run against it as a reference.
	NewReference(recon *frame.Frame)
}

// FrameEncoder implements Encoder for any SliceEncoder: everything about
// coding a sequence that is not inside a slice.
type FrameEncoder struct {
	name string
	cfg  Config
	hdr  container.Header
	sc   SliceEncoder

	gop    GOPScheduler
	rc     *RateController // nil = constant Q
	refs   RefList
	free   []*frame.Frame // reconstructions nothing reads any more, for reuse
	runner SliceRunner
	wfRun  WavefrontRunner

	spans  []SliceSpan // fixed row split for cfg.Slices
	bodies [][]byte    // per-slice bitstreams of the frame being assembled

	// The frame being coded, for its slice jobs: set by encodeFrame before
	// it dispatches them, dropped once the packet is assembled.
	src, recon *frame.Frame
	ftype      container.FrameType
	q          int           // the frame's quantizer, WireQ scale
	sliceQs    []int         // per-slice quantizers (FlagSliceQ streams only)
	tap, hint  *motion.Field // cfg.MotionTap's target, cfg.MotionHints' field
	sliceJob   func(i int)   // e.encodeSlice, bound once: dispatch allocates nothing

	nextPTS int // display index the next Encode stamps
}

// NewFrameEncoder validates cfg and returns the driver for sc. name
// prefixes errors; id and flags (the codec-private low bits) go into the
// stream header. maxRefs is the reference-list depth: at least 2 for a
// codec whose B pictures use both neighbours.
func NewFrameEncoder(name string, cfg Config, id container.Codec, flags uint16, maxRefs int, sc SliceEncoder) (*FrameEncoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if cfg.SliceQ() {
		flags |= container.FlagSliceQ
	}
	e := &FrameEncoder{
		name: name, cfg: cfg, sc: sc,
		hdr: container.Header{Codec: id, Flags: flags, Width: cfg.Width, Height: cfg.Height,
			FPSNum: cfg.FPSNum, FPSDen: cfg.FPSDen},
		gop:   GOPScheduler{BFrames: cfg.BFrames, IntraPeriod: cfg.IntraPeriod, SceneCut: cfg.SceneCutIntra},
		rc:    NewRateController(cfg),
		refs:  RefList{Max: maxRefs},
		spans: SliceRows(cfg.MBRows(), cfg.Slices),
	}
	e.bodies = make([][]byte, len(e.spans))
	e.sliceJob = e.encodeSlice
	return e, nil
}

// SetSliceRunner, SetPTSBase and Header implement Encoder.
func (e *FrameEncoder) SetSliceRunner(r SliceRunner) { e.runner = r }
func (e *FrameEncoder) SetPTSBase(base int)          { e.nextPTS = base }
func (e *FrameEncoder) Header() container.Header     { return e.hdr }

// SetWavefrontRunner implements Encoder. The runner is kept only when
// cfg.Wavefront asks for it, so installing one is always safe.
func (e *FrameEncoder) SetWavefrontRunner(r WavefrontRunner) {
	if e.cfg.Wavefront {
		e.wfRun = r
	}
}

// Reset implements Encoder. Slice coders keep no state across an I
// frame (the closed-GOP invariant GOP-chunk parallelism relies on), and
// a stream opens with one, so Reset leaves them alone; the installed
// runners stay too.
func (e *FrameEncoder) Reset() {
	e.gop.Reset()
	if e.rc != nil {
		e.rc.Reset()
	}
	e.refs.Reset(&e.free)
	e.nextPTS = 0
}

// Encode implements Encoder.
func (e *FrameEncoder) Encode(f *frame.Frame) ([]container.Packet, error) {
	if f.Width != e.cfg.Width || f.Height != e.cfg.Height {
		return nil, fmt.Errorf("%s: frame is %dx%d, config is %dx%d",
			e.name, f.Width, f.Height, e.cfg.Width, e.cfg.Height)
	}
	f.PTS = e.nextPTS // display index = base + arrival order
	e.nextPTS++
	return e.encodeAll(e.gop.Push(f)), nil
}

// Flush implements Encoder.
func (e *FrameEncoder) Flush() ([]container.Packet, error) {
	return e.encodeAll(e.gop.Flush()), nil
}

func (e *FrameEncoder) encodeAll(entries []GOPEntry) []container.Packet {
	var pkts []container.Packet
	for _, entry := range entries {
		pkts = append(pkts, e.encodeFrame(entry.Frame, entry.Type))
	}
	return pkts
}

func (e *FrameEncoder) encodeSlice(i int) {
	q := e.q
	if e.cfg.SliceQ() {
		q = e.sliceQs[i]
	}
	e.bodies[i] = e.sc.EncodeSlice(i, e.src, e.recon, e.ftype, e.spans[i], q, e.wfRun, e.tap, e.hint)
}

// newRecon returns a frame to reconstruct a picture of type ftype into:
// one from the free list when it has any — a reference prefers a frame
// that owns half-pel plane memory for NewReference to refill, a B
// picture one that does not — and a new one otherwise.
func (e *FrameEncoder) newRecon(ftype container.FrameType) *frame.Frame {
	n := len(e.free)
	if n == 0 {
		return frame.NewPadded(e.cfg.Width, e.cfg.Height, RefPad)
	}
	ref, i := ftype != container.FrameB, n-1
	for j, f := range e.free {
		if ownsPlanes(f) == ref {
			i = j
			break
		}
	}
	f := e.free[i]
	e.free[i] = e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	f.Recycle()
	if poisonRecycled {
		poison(f)
	}
	return f
}

func ownsPlanes(f *frame.Frame) bool { return f.Hpel6 != nil || f.HpelBilin != nil || f.Spare != nil }

// poisonRecycled, set only by tests, makes newRecon fill every recycled
// frame's samples and spare plane memory with 0xA5 before reuse: a slice
// coder, in-loop filter or search that read anything not written since
// would move a bitstream.
var poisonRecycled bool

func poison(f *frame.Frame) {
	fill := func(b []byte) { // by doubling copies: cheap under -race too
		if len(b) > 0 {
			b[0] = 0xA5
			for n := 1; n < len(b); n *= 2 {
				copy(b[n:], b[:n])
			}
		}
	}
	fill(f.Y)
	fill(f.Cb)
	fill(f.Cr)
	if hp := f.Spare; hp != nil {
		fill(hp.H)
		fill(hp.V)
		fill(hp.HV)
		for i := range hp.Rows {
			hp.Rows[i] = ^0x5a5a5a5a // 0xA5A5A5A5 as an int32
		}
	}
}

func (e *FrameEncoder) encodeFrame(src *frame.Frame, ftype container.FrameType) container.Packet {
	if ftype == container.FrameI {
		// Closed GOP: an I frame invalidates every earlier reference, so a
		// chunk encoder starting here matches the serial stream exactly.
		e.refs.Reset(&e.free)
	}
	recon := e.newRecon(ftype)
	recon.PTS = src.PTS
	e.src, e.recon, e.ftype = src, recon, ftype

	// Quantizers: constant, or the controller's in the MPEG scale, mapped
	// to the codec's own for the slices and the payload.
	q, sliceQ := e.cfg.Q, e.cfg.SliceQ()
	if e.rc != nil {
		q = e.rc.FrameQ(ftype)
		if sliceQ {
			e.sliceQs = e.sliceQs[:0]
			for _, sq := range e.rc.SliceQs(q, len(e.spans)) {
				e.sliceQs = append(e.sliceQs, e.sc.WireQ(sq))
			}
		}
	}
	q = e.sc.WireQ(q)
	e.q = q

	if ftype != container.FrameI {
		if e.cfg.MotionTap != nil {
			e.tap = motion.NewField(e.cfg.Width, e.cfg.Height)
		}
		if e.cfg.MotionHints != nil {
			e.hint = e.cfg.MotionHints(src.PTS)
		}
	}

	e.sc.BeginFrame(&e.refs, len(e.spans))
	runSlices(e.runner, len(e.spans), e.sliceJob)
	e.sc.EndFrame(recon, q)
	recon.ExtendBorders()
	if ftype != container.FrameB {
		e.sc.NewReference(recon)
		if old := e.refs.Add(recon); old != nil {
			e.free = append(e.free, old)
		}
	} else {
		e.free = append(e.free, recon) // nothing references a B picture
	}

	// Payload layout: the frame's quantizer byte, the slice table, then
	// the slice bitstreams in row order — each led by its own quantizer
	// byte (counted in its Size) in a FlagSliceQ stream.
	prefix := 0
	if sliceQ {
		prefix = 1
	}
	total := 1 + SliceTableSize(len(e.spans))
	for i, b := range e.bodies {
		e.spans[i].Size = prefix + len(b)
		total += e.spans[i].Size
	}
	payload := make([]byte, 0, total)
	payload = append(payload, byte(q))
	payload = AppendSliceTable(payload, e.spans)
	for i, b := range e.bodies {
		if sliceQ {
			payload = append(payload, byte(e.sliceQs[i]))
		}
		payload = append(payload, b...)
	}

	if e.rc != nil {
		e.rc.AddFrame(ftype, 8*len(payload))
		if sliceQ {
			e.rc.AddSlices(e.spans)
		}
	}
	if e.tap != nil {
		e.cfg.MotionTap(src.PTS, e.tap)
	}
	e.src, e.recon, e.tap, e.hint = nil, nil, nil, nil
	return container.Packet{Type: ftype, DisplayIndex: src.PTS, Payload: payload}
}
