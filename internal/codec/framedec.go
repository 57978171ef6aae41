package codec

import (
	"fmt"
	"slices"

	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
)

// SliceDecoder is the codec-specific half of a FrameDecoder.
type SliceDecoder interface {
	FrameHooks
	// DecodeSlice parses bits, slice i of the frame (i below BeginFrame's
	// slices), into rows span of recon. q is the slice's quantizer,
	// already range-checked.
	DecodeSlice(i int, bits []byte, recon *frame.Frame, ftype container.FrameType, span SliceSpan, q int) error
}

// FrameDecoder implements Decoder for any SliceDecoder: everything about
// decoding a packet that is not inside a slice.
type FrameDecoder struct {
	name       string
	hdr        container.Header
	minQ, maxQ int
	sd         SliceDecoder
	runner     SliceRunner

	refs    RefList
	reorder DisplayReorderer
	errs    []error // per-slice results, reused across frames
}

// NewFrameDecoder checks hdr against the codec (id, macroblock-aligned
// size) and returns the driver for sd. name prefixes errors; payload
// quantizer bytes outside [minQ, maxQ] are rejected; maxRefs is the
// reference-list depth the stream was coded with.
func NewFrameDecoder(name string, hdr container.Header, id container.Codec, minQ, maxQ, maxRefs int, sd SliceDecoder) (*FrameDecoder, error) {
	if hdr.Codec != id {
		return nil, fmt.Errorf("%s: stream codec is %v", name, hdr.Codec)
	}
	if hdr.Width%16 != 0 || hdr.Height%16 != 0 || hdr.Width <= 0 || hdr.Height <= 0 {
		return nil, fmt.Errorf("%s: invalid dimensions %dx%d", name, hdr.Width, hdr.Height)
	}
	return &FrameDecoder{name: name, hdr: hdr, minQ: minQ, maxQ: maxQ, sd: sd, refs: RefList{Max: maxRefs}}, nil
}

// SetSliceRunner, SetPTSBase and Flush implement Decoder.
func (d *FrameDecoder) SetSliceRunner(r SliceRunner) { d.runner = r }
func (d *FrameDecoder) SetPTSBase(base int)          { d.reorder.next = base }
func (d *FrameDecoder) Flush() []*frame.Frame        { return d.reorder.Flush() }

// Decode implements Decoder.
func (d *FrameDecoder) Decode(p container.Packet) ([]*frame.Frame, error) {
	recon, err := d.decodeFrame(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.name, err)
	}
	return d.reorder.Add(recon), nil
}

func (d *FrameDecoder) decodeFrame(p container.Packet) (*frame.Frame, error) {
	if len(p.Payload) < 1 {
		return nil, fmt.Errorf("empty packet")
	}
	q := int(p.Payload[0])
	if q < d.minQ || q > d.maxQ {
		return nil, fmt.Errorf("invalid quantizer %d", q)
	}
	switch p.Type {
	case container.FrameI:
		// Closed GOP: mirror the encoder's reference reset at I frames.
		d.refs.Reset(nil)
	case container.FrameP:
		if d.refs.Len() < 1 {
			return nil, fmt.Errorf("P frame before any reference")
		}
	case container.FrameB:
		if d.refs.Len() < 2 {
			return nil, fmt.Errorf("B frame without two references")
		}
	default:
		return nil, fmt.Errorf("unknown frame type %c", p.Type)
	}
	if err := d.reorder.Check(p.DisplayIndex); err != nil {
		return nil, err
	}
	spans, off, err := ParseSliceTable(p.Payload[1:], d.hdr.Height/16)
	if err != nil {
		return nil, err
	}
	body := p.Payload[1+off:]
	d.errs = slices.Grow(d.errs[:0], len(spans))[:len(spans)] // every job sets its own

	recon := frame.NewPadded(d.hdr.Width, d.hdr.Height, RefPad)
	recon.PTS = p.DisplayIndex
	sliceQ := d.hdr.Flags&container.FlagSliceQ != 0

	d.sd.BeginFrame(&d.refs, len(spans))
	runSlices(d.runner, len(spans), func(i int) {
		lo := 0
		for _, s := range spans[:i] {
			lo += s.Size
		}
		bits, sq := body[lo:lo+spans[i].Size], q
		if sliceQ {
			// FlagSliceQ streams open every slice body with its own
			// quantizer byte, overriding the frame's for this slice.
			if len(bits) < 1 {
				d.errs[i] = fmt.Errorf("empty slice body")
				return
			}
			sq = int(bits[0])
			if sq < d.minQ || sq > d.maxQ {
				d.errs[i] = fmt.Errorf("invalid slice quantizer %d", sq)
				return
			}
			bits = bits[1:]
		}
		d.errs[i] = d.sd.DecodeSlice(i, bits, recon, p.Type, spans[i], sq)
	})
	for i, err := range d.errs {
		if err != nil {
			return nil, fmt.Errorf("slice %d (rows %d-%d): %w",
				i, spans[i].Row, spans[i].Row+spans[i].Rows-1, err)
		}
	}
	d.sd.EndFrame(recon, q)
	recon.ExtendBorders()
	if p.Type != container.FrameB {
		d.refs.Add(recon)
	}
	return recon, nil
}

// ErrSyntax and ErrOverrun construct the two errors of the slice decoders'
// macroblock loops, which are //hdvlint:noalloc: fmt allocates, and these
// run once per failed slice.
func ErrSyntax(what string, v int) error { return fmt.Errorf("invalid %s %d", what, v) }
func ErrOverrun(err error) error         { return fmt.Errorf("bitstream overrun: %w", err) }
