// Package codectest provides a probe codec for scheduler tests: a slice
// coder that codes nothing, plugged into the real codec.FrameEncoder and
// codec.FrameDecoder. Every frame is a fixed pattern of work units — a
// frame prologue, Slices slices dispatched by the driver on the
// installed SliceRunner, and inside each encoded slice a Rows×Cols grid
// offered to the WavefrontRunner the driver hands it — and the Probe
// counts how many goroutines are inside a work unit at the same instant.
// That high-water mark is what the pipeline's worker budget bounds, so
// the scheduler tests in internal/stream and internal/core assert it on
// the drivers' own dispatch code rather than inferring it from timing on
// a real codec.
//
// FuzzDecode (fuzzdecode.go) is the other kind of shared test scaffolding:
// the differential decode fuzzer the three real codecs instantiate.
package codectest

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/motion"
)

// Probe is the shape of the probe codec's frames and the concurrency
// count all instances built from it share. Set the fields before the first
// NewEncoder/NewDecoder call.
type Probe struct {
	Slices     int // slice jobs per frame (minimum 1)
	Rows, Cols int // wavefront grid per encoded slice; Rows == 0 runs none
	GOP        int // encoder: every GOP-th frame of an instance is an I packet (0 = first only)

	// OnEncode and OnDecode, when non-nil, are called at the top of every
	// Encode/Decode on the calling goroutine — the one that holds the
	// frame's token — so a test can block there to force a schedule.
	OnEncode func(f *frame.Frame)
	OnDecode func(p container.Packet)

	cur, peak atomic.Int32
}

// Peak reports the most goroutines ever inside a work unit at once.
func (p *Probe) Peak() int { return int(p.peak.Load()) }

// unit is one piece of codec work: it yields a few times while counted
// so units on different goroutines overlap whenever the scheduler lets
// them.
func (p *Probe) unit() {
	n := p.cur.Add(1)
	for {
		pk := p.peak.Load()
		if n <= pk || p.peak.CompareAndSwap(pk, n) {
			break
		}
	}
	for i := 0; i < 4; i++ {
		runtime.Gosched()
	}
	p.cur.Add(-1)
}

// Header describes the probe's streams: one macroblock column, one
// macroblock row per slice, so the drivers split every frame into
// exactly Slices slices.
func (p *Probe) Header() container.Header {
	return container.Header{Codec: container.CodecMPEG2, Width: 16, Height: 16 * max(p.Slices, 1), FPSNum: 25, FPSDen: 1}
}

// NewFrame returns a blank frame of the probe's size.
func (p *Probe) NewFrame() *frame.Frame {
	h := p.Header()
	return frame.New(h.Width, h.Height)
}

// Packet builds a packet the probe's decoder accepts: quantizer byte,
// slice table, and id in the first slice's body, where PacketID finds it
// whatever the pipeline does to the display index.
func (p *Probe) Packet(typ container.FrameType, id int) container.Packet {
	spans := codec.SliceRows(max(p.Slices, 1), p.Slices)
	spans[0].Size = 4
	payload := codec.AppendSliceTable([]byte{1}, spans)
	return container.Packet{Type: typ, DisplayIndex: id, Payload: binary.LittleEndian.AppendUint32(payload, uint32(id))}
}

// PacketID returns the id Packet stored.
func PacketID(pkt container.Packet) int {
	return int(binary.LittleEndian.Uint32(pkt.Payload[len(pkt.Payload)-4:]))
}

// The codec.FrameHooks both drivers call on the dispatching goroutine,
// which is counted only while it runs a unit itself, never while it
// waits for the slices it handed out.

func (p *Probe) BeginFrame(*codec.RefList, int) { p.unit() }
func (p *Probe) EndFrame(*frame.Frame, int)     {}
func (p *Probe) WireQ(q int) int                { return q }
func (p *Probe) NewReference(*frame.Frame)      {}

// EncodeSlice implements codec.SliceEncoder: one unit, then the grid.
func (p *Probe) EncodeSlice(_ int, _, _ *frame.Frame, _ container.FrameType, _ codec.SliceSpan,
	_ int, wf codec.WavefrontRunner, _, _ *motion.Field) []byte {
	p.unit()
	if p.Rows > 0 {
		codec.RunWavefront(wf, p.Rows, p.Cols, func(x, y int) bool {
			p.unit()
			return true
		})
	}
	return nil
}

// DecodeSlice implements codec.SliceDecoder: one unit.
func (p *Probe) DecodeSlice(int, []byte, *frame.Frame, container.FrameType, codec.SliceSpan, int) error {
	p.unit()
	return nil
}

// Encoder is the real frame driver over the probe, plus the OnEncode
// hook. Packets come out one per frame, in arrival order, stamped with
// the instance-local arrival index.
type Encoder struct {
	*codec.FrameEncoder
	p *Probe
}

// NewEncoder is a pipeline.EncoderFactory.
func (p *Probe) NewEncoder() (codec.Encoder, error) {
	h := p.Header()
	cfg := codec.Default(h.Width, h.Height)
	cfg.BFrames, cfg.IntraPeriod, cfg.Slices, cfg.Wavefront = 0, p.GOP, p.Slices, p.Rows > 0
	fe, err := codec.NewFrameEncoder("probe", cfg, h.Codec, 0, 1, p)
	if err != nil {
		return nil, err
	}
	return &Encoder{fe, p}, nil
}

func (e *Encoder) Encode(f *frame.Frame) ([]container.Packet, error) {
	if e.p.OnEncode != nil {
		e.p.OnEncode(f)
	}
	return e.FrameEncoder.Encode(f)
}

// Decoder is the real frame driver over the probe, plus the OnDecode
// hook: one blank frame per packet, stamped with its display index.
type Decoder struct {
	*codec.FrameDecoder
	p *Probe
}

// NewDecoder is a pipeline.DecoderFactory.
func (p *Probe) NewDecoder() (codec.Decoder, error) {
	fd, err := codec.NewFrameDecoder("probe", p.Header(), container.CodecMPEG2, 1, 31, 1, p)
	if err != nil {
		return nil, err
	}
	return &Decoder{fd, p}, nil
}

func (d *Decoder) Decode(pkt container.Packet) ([]*frame.Frame, error) {
	if d.p.OnDecode != nil {
		d.p.OnDecode(pkt)
	}
	return d.FrameDecoder.Decode(pkt)
}
