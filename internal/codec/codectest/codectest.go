// Package codectest provides a fake codec for scheduler tests. Its
// encoder and decoder code nothing; every frame is a fixed pattern of
// work units — a frame prologue, Slices slice jobs offered to the
// installed SliceRunner, and inside each slice a Rows×Cols grid offered
// to the installed WavefrontRunner — and the Probe they share counts how
// many goroutines are inside a work unit at the same instant. That
// high-water mark is what the pipeline's worker budget bounds, so the
// scheduler tests in internal/pipeline, internal/stream and
// internal/core assert it on the fake rather than inferring it from
// timing on a real codec.
//
// FuzzDecode (fuzzdecode.go) is the other kind of shared test scaffolding:
// the differential decode fuzzer the three real codecs instantiate.
package codectest

import (
	"runtime"
	"sync/atomic"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
)

// Probe is the shape of the fake's frames and the concurrency count all
// instances built from it share. Set the fields before the first
// NewEncoder/NewDecoder call.
type Probe struct {
	Slices     int // slice jobs per frame (minimum 1)
	Rows, Cols int // wavefront grid per slice; Rows == 0 runs none
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

// frame runs one frame's work. The dispatching goroutine is counted
// only while it runs a unit itself, never while it waits for the jobs it
// handed out, so the count is of goroutines doing codec work.
func (p *Probe) frame(slices codec.SliceRunner, front codec.WavefrontRunner) {
	p.unit()
	codec.RunSlices(slices, max(p.Slices, 1), func(int) {
		p.unit()
		if p.Rows > 0 {
			codec.RunWavefront(front, p.Rows, p.Cols, func(x, y int) bool {
				p.unit()
				return true
			})
		}
	})
}

// sched is the runner pair both fakes let the pipeline install.
type sched struct {
	slices codec.SliceRunner
	front  codec.WavefrontRunner
}

func (s *sched) SetSliceRunner(r codec.SliceRunner)         { s.slices = r }
func (s *sched) SetWavefrontRunner(r codec.WavefrontRunner) { s.front = r }

// Encoder is the fake codec.Encoder: one packet per frame, in arrival
// order, stamped with the instance-local arrival index like the real
// encoders.
type Encoder struct {
	sched
	p *Probe
	n int
}

// NewEncoder is a pipeline.EncoderFactory.
func (p *Probe) NewEncoder() (codec.Encoder, error) { return &Encoder{p: p}, nil }

func (e *Encoder) Encode(f *frame.Frame) ([]container.Packet, error) {
	if e.p.OnEncode != nil {
		e.p.OnEncode(f)
	}
	e.p.frame(e.slices, e.front)
	typ := container.FrameP
	if e.n == 0 || (e.p.GOP > 0 && e.n%e.p.GOP == 0) {
		typ = container.FrameI
	}
	pkt := container.Packet{Type: typ, DisplayIndex: e.n, Payload: []byte{byte(e.n)}}
	e.n++
	return []container.Packet{pkt}, nil
}

func (e *Encoder) Flush() ([]container.Packet, error) { return nil, nil }

func (e *Encoder) Header() container.Header {
	return container.Header{Codec: container.CodecMPEG2, Width: 16, Height: 16, FPSNum: 25, FPSDen: 1}
}

// Decoder is the fake codec.Decoder: one 16×16 frame per packet, stamped
// with the packet's display index.
type Decoder struct {
	sched
	p *Probe
}

// NewDecoder is a pipeline.DecoderFactory.
func (p *Probe) NewDecoder() (codec.Decoder, error) { return &Decoder{p: p}, nil }

func (d *Decoder) Decode(pkt container.Packet) ([]*frame.Frame, error) {
	if d.p.OnDecode != nil {
		d.p.OnDecode(pkt)
	}
	d.p.frame(d.slices, d.front)
	f := frame.New(16, 16)
	f.PTS = pkt.DisplayIndex
	return []*frame.Frame{f}, nil
}

func (d *Decoder) Flush() []*frame.Frame { return nil }
