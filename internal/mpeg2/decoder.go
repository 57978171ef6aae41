package mpeg2

import (
	"fmt"

	"hdvideobench/internal/bitstream"
	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/dct"
	"hdvideobench/internal/entropy"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/interp"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/motion"
	"hdvideobench/internal/quant"
)

// Decoder is the MPEG-2-class decoder (the paper's libmpeg2 role).
//
// Each frame payload carries a slice table (see internal/codec); every
// slice is decoded independently — own bitstream reader, own predictors,
// disjoint macroblock rows of the shared reconstruction — so the slices
// of one frame run concurrently on the SliceRunner.
type Decoder struct {
	hdr    container.Header
	kern   kernel.Set
	runner codec.SliceRunner

	prevRef, lastRef *frame.Frame
	reorder          codec.DisplayReorderer

	slices []*sliceDec // per-slice decoders, reused across frames
	errs   []error     // per-slice decode results, reused across frames
}

// sliceDec carries the per-slice decoder state.
type sliceDec struct {
	d  *Decoder
	br bitstream.Reader

	pred predBuf

	dcPred  [3]int32
	fwdPred motion.MV
	bwdPred motion.MV
}

// NewDecoder returns a decoder for the stream described by hdr. The kernel
// set selects the scalar or SWAR motion-compensation path.
func NewDecoder(hdr container.Header, kern kernel.Set) (*Decoder, error) {
	if hdr.Codec != container.CodecMPEG2 {
		return nil, fmt.Errorf("mpeg2: stream codec is %v", hdr.Codec)
	}
	if err := validateSize(hdr); err != nil {
		return nil, err
	}
	return &Decoder{hdr: hdr, kern: kern}, nil
}

// SetSliceRunner implements codec.SliceScheduler: per-frame slice jobs
// run on r (nil restores the serial default). Decoded pixels do not
// depend on the runner.
func (d *Decoder) SetSliceRunner(r codec.SliceRunner) { d.runner = r }

// Decode implements codec.Decoder.
func (d *Decoder) Decode(p container.Packet) ([]*frame.Frame, error) {
	recon, err := d.decodeFrame(p)
	if err != nil {
		return nil, err
	}
	return d.reorder.Add(recon), nil
}

// Flush implements codec.Decoder.
func (d *Decoder) Flush() []*frame.Frame { return d.reorder.Flush() }

// grow ensures d.slices and d.errs cover n slices.
func (d *Decoder) grow(n int) {
	for len(d.slices) < n {
		d.slices = append(d.slices, &sliceDec{d: d})
	}
	if cap(d.errs) < n {
		d.errs = make([]error, n)
	}
	d.errs = d.errs[:n]
}

func (d *Decoder) decodeFrame(p container.Packet) (*frame.Frame, error) {
	if len(p.Payload) < 1 {
		return nil, fmt.Errorf("mpeg2: empty packet")
	}
	q := int32(p.Payload[0])
	if q < 1 || q > 31 {
		return nil, fmt.Errorf("mpeg2: invalid quantizer %d", q)
	}
	if p.Type == container.FrameP && d.lastRef == nil {
		return nil, fmt.Errorf("mpeg2: P frame before any reference")
	}
	if p.Type == container.FrameB && (d.lastRef == nil || d.prevRef == nil) {
		return nil, fmt.Errorf("mpeg2: B frame without two references")
	}
	switch p.Type {
	case container.FrameI, container.FrameP, container.FrameB:
	default:
		return nil, fmt.Errorf("mpeg2: unknown frame type %c", p.Type)
	}

	spans, off, err := codec.ParseSliceTable(p.Payload[1:], d.hdr.Height/16)
	if err != nil {
		return nil, fmt.Errorf("mpeg2: %w", err)
	}
	body := p.Payload[1+off:]
	d.grow(len(spans))

	recon := frame.NewPadded(d.hdr.Width, d.hdr.Height, codec.RefPad)
	recon.PTS = p.DisplayIndex

	sliceQ := d.hdr.Flags&container.FlagSliceQ != 0
	codec.RunSlices(d.runner, len(spans), func(i int) {
		lo := 0
		for _, s := range spans[:i] {
			lo += s.Size
		}
		bits := body[lo : lo+spans[i].Size]
		sq := q
		if sliceQ {
			// FlagSliceQ streams open every slice body with its own
			// quantizer byte, overriding the frame q for this slice.
			if len(bits) < 1 {
				d.errs[i] = fmt.Errorf("empty slice body")
				return
			}
			sq = int32(bits[0])
			if sq < 1 || sq > 31 {
				d.errs[i] = fmt.Errorf("invalid slice quantizer %d", sq)
				return
			}
			bits = bits[1:]
		}
		d.errs[i] = d.slices[i].decode(bits, recon, p.Type, spans[i], sq)
	})
	for i, err := range d.errs {
		if err != nil {
			return nil, fmt.Errorf("mpeg2: slice %d (rows %d-%d): %w",
				i, spans[i].Row, spans[i].Row+spans[i].Rows-1, err)
		}
	}

	recon.ExtendBorders()
	switch p.Type {
	case container.FrameI:
		// Closed GOP: mirror the encoder's reference reset at I frames.
		d.prevRef = nil
		d.lastRef = recon
	case container.FrameP:
		d.prevRef = d.lastRef
		d.lastRef = recon
	}
	return recon, nil
}

// decode parses one slice bitstream into its macroblock rows.
//
//hdvlint:noalloc
func (s *sliceDec) decode(buf []byte, recon *frame.Frame, ftype container.FrameType, span codec.SliceSpan, q int32) error {
	s.br.Reset(buf)
	mbCols := s.d.hdr.Width / 16
	for mby := span.Row; mby < span.Row+span.Rows; mby++ {
		s.dcPred = [3]int32{dcPredInit, dcPredInit, dcPredInit}
		s.fwdPred = motion.MV{}
		s.bwdPred = motion.MV{}
		for mbx := 0; mbx < mbCols; mbx++ {
			var err error
			switch ftype {
			case container.FrameI:
				err = s.decodeIntraMB(recon, mbx, mby, q)
			case container.FrameP:
				err = s.decodePMB(recon, mbx, mby, q)
			default:
				err = s.decodeBMB(recon, mbx, mby, q)
			}
			if err != nil {
				return err
			}
		}
	}
	if s.br.Err() != nil {
		return errOverrun(s.br.Err())
	}
	return nil
}

//hdvlint:noalloc
func (s *sliceDec) decodeIntraMB(recon *frame.Frame, mbx, mby int, q int32) error {
	px, py := mbx*16, mby*16
	for i := 0; i < 4; i++ {
		roff := recon.YOrigin + (py+8*(i/2))*recon.YStride + px + 8*(i%2)
		if err := s.intraBlock(recon.Y, roff, recon.YStride, q, 0); err != nil {
			return err
		}
	}
	cx, cy := px/2, py/2
	croff := recon.COrigin + cy*recon.CStride + cx
	if err := s.intraBlock(recon.Cb, croff, recon.CStride, q, 1); err != nil {
		return err
	}
	return s.intraBlock(recon.Cr, croff, recon.CStride, q, 2)
}

//hdvlint:noalloc
func (s *sliceDec) intraBlock(rec []byte, roff, rstride int, q int32, comp int) error {
	var blk [64]int32
	dc := s.dcPred[comp] + entropy.ReadSE(&s.br)
	s.dcPred[comp] = dc
	blk[0] = dc
	if err := codec.ReadRunLevels(&s.br, &blk, 1, eob8); err != nil {
		return err
	}
	quant.Mpeg2DequantIntra(&blk, q)
	dct.Inverse8(&blk)
	codec.Store8Clip(rec, roff, rstride, &blk)
	return nil
}

// mcLuma fills the decoder's luma prediction buffer for a half-pel MV.
func (s *sliceDec) mcLuma(ref *frame.Frame, px, py int, mv motion.MV, dst []byte) {
	ix, fx := splitHalf(int(mv.X))
	iy, fy := splitHalf(int(mv.Y))
	ix = clampMVToWindow(ix, px, s.d.hdr.Width, 16, lumaMargin)
	iy = clampMVToWindow(iy, py, s.d.hdr.Height, 16, lumaMargin)
	so := ref.YOrigin + (py+iy)*ref.YStride + px + ix
	interp.HalfPel(dst, 16, ref.Y[so:], ref.YStride, 16, 16, fx, fy, s.d.kern)
}

// mcChroma fills the chroma prediction buffers.
func (s *sliceDec) mcChroma(ref *frame.Frame, px, py int, mv motion.MV, cb, cr []byte) {
	cvx := chromaMV(int(mv.X))
	cvy := chromaMV(int(mv.Y))
	ix, fx := splitHalf(cvx)
	iy, fy := splitHalf(cvy)
	cx, cy := px/2, py/2
	ix = clampMVToWindow(ix, cx, s.d.hdr.Width/2, 8, chromaMargin)
	iy = clampMVToWindow(iy, cy, s.d.hdr.Height/2, 8, chromaMargin)
	so := ref.COrigin + (cy+iy)*ref.CStride + cx + ix
	interp.HalfPel(cb, 8, ref.Cb[so:], ref.CStride, 8, 8, fx, fy, s.d.kern)
	interp.HalfPel(cr, 8, ref.Cr[so:], ref.CStride, 8, 8, fx, fy, s.d.kern)
}

// decodeResidualMB parses CBP and residual blocks, reconstructing
// pred + residual into recon.
//
//hdvlint:noalloc
func (s *sliceDec) decodeResidualMB(recon *frame.Frame, px, py int, q int32) error {
	cbp := int(s.br.ReadBits(6))
	var blk [64]int32
	for i := 0; i < 4; i++ {
		ro := recon.YOrigin + (py+8*(i/2))*recon.YStride + px + 8*(i%2)
		po := 8*(i/2)*16 + 8*(i%2)
		if cbp&(1<<(5-i)) != 0 {
			blk = [64]int32{}
			if err := codec.ReadRunLevels(&s.br, &blk, 0, eob64); err != nil {
				return err
			}
			quant.Mpeg2DequantInter(&blk, q)
			dct.Inverse8(&blk)
			codec.Add8Clip(recon.Y, ro, recon.YStride, s.pred.y[:], po, 16, &blk, s.d.kern)
		} else {
			codec.Copy8(recon.Y, ro, recon.YStride, s.pred.y[:], po, 16)
		}
	}
	cx, cy := px/2, py/2
	cro := recon.COrigin + cy*recon.CStride + cx
	if cbp&2 != 0 {
		blk = [64]int32{}
		if err := codec.ReadRunLevels(&s.br, &blk, 0, eob64); err != nil {
			return err
		}
		quant.Mpeg2DequantInter(&blk, q)
		dct.Inverse8(&blk)
		codec.Add8Clip(recon.Cb, cro, recon.CStride, s.pred.cb[:], 0, 8, &blk, s.d.kern)
	} else {
		codec.Copy8(recon.Cb, cro, recon.CStride, s.pred.cb[:], 0, 8)
	}
	if cbp&1 != 0 {
		blk = [64]int32{}
		if err := codec.ReadRunLevels(&s.br, &blk, 0, eob64); err != nil {
			return err
		}
		quant.Mpeg2DequantInter(&blk, q)
		dct.Inverse8(&blk)
		codec.Add8Clip(recon.Cr, cro, recon.CStride, s.pred.cr[:], 0, 8, &blk, s.d.kern)
	} else {
		codec.Copy8(recon.Cr, cro, recon.CStride, s.pred.cr[:], 0, 8)
	}
	return nil
}

// copyPredToRecon mirrors the encoder's skip reconstruction.
func (s *sliceDec) copyPredToRecon(recon *frame.Frame, px, py int) {
	for r := 0; r < 16; r++ {
		ro := recon.YOrigin + (py+r)*recon.YStride + px
		copy(recon.Y[ro:ro+16], s.pred.y[r*16:r*16+16])
	}
	cx, cy := px/2, py/2
	for r := 0; r < 8; r++ {
		ro := recon.COrigin + (cy+r)*recon.CStride + cx
		copy(recon.Cb[ro:ro+8], s.pred.cb[r*8:r*8+8])
		copy(recon.Cr[ro:ro+8], s.pred.cr[r*8:r*8+8])
	}
}

//hdvlint:noalloc
func (s *sliceDec) decodePMB(recon *frame.Frame, mbx, mby int, q int32) error {
	px, py := mbx*16, mby*16
	mode := entropy.ReadUE(&s.br)
	switch mode {
	case pIntra:
		if err := s.decodeIntraMB(recon, mbx, mby, q); err != nil {
			return err
		}
		s.fwdPred = motion.MV{}
		return nil
	case pSkip:
		s.mcLuma(s.d.lastRef, px, py, motion.MV{}, s.pred.y[:])
		s.mcChroma(s.d.lastRef, px, py, motion.MV{}, s.pred.cb[:], s.pred.cr[:])
		s.copyPredToRecon(recon, px, py)
		s.fwdPred = motion.MV{}
		s.dcPred = [3]int32{dcPredInit, dcPredInit, dcPredInit}
		return nil
	case pInter:
		mv := motion.MV{
			X: int16(int32(s.fwdPred.X) + entropy.ReadSE(&s.br)),
			Y: int16(int32(s.fwdPred.Y) + entropy.ReadSE(&s.br)),
		}
		s.fwdPred = mv
		s.mcLuma(s.d.lastRef, px, py, mv, s.pred.y[:])
		s.mcChroma(s.d.lastRef, px, py, mv, s.pred.cb[:], s.pred.cr[:])
		if err := s.decodeResidualMB(recon, px, py, q); err != nil {
			return err
		}
		s.dcPred = [3]int32{dcPredInit, dcPredInit, dcPredInit}
		return nil
	}
	return errSyntax("P macroblock mode", int(mode))
}

//hdvlint:noalloc
func (s *sliceDec) decodeBMB(recon *frame.Frame, mbx, mby int, q int32) error {
	px, py := mbx*16, mby*16
	mode := entropy.ReadUE(&s.br)
	switch mode {
	case bIntra:
		if err := s.decodeIntraMB(recon, mbx, mby, q); err != nil {
			return err
		}
		s.fwdPred = motion.MV{}
		s.bwdPred = motion.MV{}
		return nil
	case bSkip:
		s.mcLuma(s.d.prevRef, px, py, s.fwdPred, s.pred.y[:])
		s.mcChroma(s.d.prevRef, px, py, s.fwdPred, s.pred.cb[:], s.pred.cr[:])
		s.copyPredToRecon(recon, px, py)
		s.dcPred = [3]int32{dcPredInit, dcPredInit, dcPredInit}
		return nil
	case bFwd, bBwd, bBi:
		var fwdMV, bwdMV motion.MV
		if mode == bFwd || mode == bBi {
			fwdMV = motion.MV{
				X: int16(int32(s.fwdPred.X) + entropy.ReadSE(&s.br)),
				Y: int16(int32(s.fwdPred.Y) + entropy.ReadSE(&s.br)),
			}
			s.fwdPred = fwdMV
		}
		if mode == bBwd || mode == bBi {
			bwdMV = motion.MV{
				X: int16(int32(s.bwdPred.X) + entropy.ReadSE(&s.br)),
				Y: int16(int32(s.bwdPred.Y) + entropy.ReadSE(&s.br)),
			}
			s.bwdPred = bwdMV
		}
		switch mode {
		case bFwd:
			s.mcLuma(s.d.prevRef, px, py, fwdMV, s.pred.y[:])
			s.mcChroma(s.d.prevRef, px, py, fwdMV, s.pred.cb[:], s.pred.cr[:])
		case bBwd:
			s.mcLuma(s.d.lastRef, px, py, bwdMV, s.pred.y[:])
			s.mcChroma(s.d.lastRef, px, py, bwdMV, s.pred.cb[:], s.pred.cr[:])
		case bBi:
			s.mcLuma(s.d.prevRef, px, py, fwdMV, s.pred.y[:])
			s.mcLuma(s.d.lastRef, px, py, bwdMV, s.pred.yAlt[:])
			interp.Avg(s.pred.y[:], 16, s.pred.yAlt[:], 16, 16, 16, s.d.kern)
			s.mcChroma(s.d.prevRef, px, py, fwdMV, s.pred.cb[:], s.pred.cr[:])
			s.mcChroma(s.d.lastRef, px, py, bwdMV, s.pred.cbAlt[:], s.pred.crAlt[:])
			interp.Avg(s.pred.cb[:], 8, s.pred.cbAlt[:], 8, 8, 8, s.d.kern)
			interp.Avg(s.pred.cr[:], 8, s.pred.crAlt[:], 8, 8, 8, s.d.kern)
		}
		if err := s.decodeResidualMB(recon, px, py, q); err != nil {
			return err
		}
		s.dcPred = [3]int32{dcPredInit, dcPredInit, dcPredInit}
		return nil
	}
	return errSyntax("B macroblock mode", int(mode))
}

// Error constructors for the macroblock loops, which are //hdvlint:noalloc:
// fmt allocates, and these run once per failed slice.

func errSyntax(what string, v int) error { return fmt.Errorf("invalid %s %d", what, v) }

func errOverrun(err error) error { return fmt.Errorf("bitstream overrun: %w", err) }
