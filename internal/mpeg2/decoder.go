package mpeg2

import (
	"hdvideobench/internal/bitstream"
	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/entropy"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/interp"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/motion"
)

// Decoder is the MPEG-2-class decoder (the paper's libmpeg2 role):
// codec.FrameDecoder driving this package's slice decoder.
type Decoder struct {
	*codec.FrameDecoder
	hdr  container.Header
	kern kernel.Set

	prevRef, lastRef *frame.Frame // the frame's references, coding order
	slices           []*sliceDec  // per-slice decoders, reused across frames
}

// sliceDec carries the per-slice decoder state.
type sliceDec struct {
	d  *Decoder
	br bitstream.Reader

	pred codec.PredMB

	dcPred  [3]int32
	fwdPred motion.MV
	bwdPred motion.MV
}

// NewDecoder returns a decoder for the stream described by hdr. The kernel
// set selects the scalar or SWAR motion-compensation path.
func NewDecoder(hdr container.Header, kern kernel.Set) (*Decoder, error) {
	d := &Decoder{hdr: hdr, kern: kern}
	var err error
	if d.FrameDecoder, err = codec.NewFrameDecoder("mpeg2", hdr, container.CodecMPEG2, 1, 31, 2, d); err != nil {
		return nil, err
	}
	return d, nil
}

// BeginFrame implements codec.SliceDecoder: P pictures predict from the
// last reference, B pictures from the two around them.
func (d *Decoder) BeginFrame(refs *codec.RefList, slices int) {
	d.lastRef, d.prevRef = refs.Get(0), refs.Get(1)
	for len(d.slices) < slices {
		d.slices = append(d.slices, &sliceDec{d: d})
	}
}

// EndFrame implements codec.SliceDecoder: no in-loop filter.
func (d *Decoder) EndFrame(*frame.Frame, int) {}

// DecodeSlice implements codec.SliceDecoder.
func (d *Decoder) DecodeSlice(i int, bits []byte, recon *frame.Frame, ftype container.FrameType, span codec.SliceSpan, q int) error {
	return d.slices[i].decode(bits, recon, ftype, span, int32(q))
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
		return codec.ErrOverrun(s.br.Err())
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
	reconIntraBlock(rec, roff, rstride, &blk, q)
	return nil
}

// mcLuma fills the decoder's luma prediction buffer for a half-pel MV.
func (s *sliceDec) mcLuma(ref *frame.Frame, px, py int, mv motion.MV, dst []byte) {
	ix, fx := codec.SplitHalf(int(mv.X))
	iy, fy := codec.SplitHalf(int(mv.Y))
	ix = codec.ClampMVToWindow(ix, px, s.d.hdr.Width, 16, codec.LumaMargin)
	iy = codec.ClampMVToWindow(iy, py, s.d.hdr.Height, 16, codec.LumaMargin)
	so := ref.YOrigin + (py+iy)*ref.YStride + px + ix
	interp.HalfPel(dst, 16, ref.Y[so:], ref.YStride, 16, 16, fx, fy, s.d.kern)
}

// decodeResidualMB parses CBP and the coded blocks of an inter
// macroblock, then reconstructs it on the prediction in s.pred.
//
//hdvlint:noalloc
func (s *sliceDec) decodeResidualMB(recon *frame.Frame, px, py int, q int32) error {
	cbp := int(s.br.ReadBits(6))
	var blks [6][64]int32
	for i := range blks {
		if cbp&(1<<(5-i)) != 0 {
			if err := codec.ReadRunLevels(&s.br, &blks[i], 0, eob64); err != nil {
				return err
			}
		}
	}
	reconInterMB(recon, px, py, &s.pred, &blks, cbp, q, s.d.kern)
	return nil
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
		s.mcLuma(s.d.lastRef, px, py, motion.MV{}, s.pred.Y[:])
		mcChroma(s.d.lastRef, px, py, motion.MV{}, s.pred.Cb[:], s.pred.Cr[:], s.d.kern)
		s.pred.CopyTo(recon, px, py)
		s.fwdPred = motion.MV{}
		s.dcPred = [3]int32{dcPredInit, dcPredInit, dcPredInit}
		return nil
	case pInter:
		mv := motion.MV{
			X: int16(int32(s.fwdPred.X) + entropy.ReadSE(&s.br)),
			Y: int16(int32(s.fwdPred.Y) + entropy.ReadSE(&s.br)),
		}
		s.fwdPred = mv
		s.mcLuma(s.d.lastRef, px, py, mv, s.pred.Y[:])
		mcChroma(s.d.lastRef, px, py, mv, s.pred.Cb[:], s.pred.Cr[:], s.d.kern)
		if err := s.decodeResidualMB(recon, px, py, q); err != nil {
			return err
		}
		s.dcPred = [3]int32{dcPredInit, dcPredInit, dcPredInit}
		return nil
	}
	return codec.ErrSyntax("P macroblock mode", int(mode))
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
		s.mcLuma(s.d.prevRef, px, py, s.fwdPred, s.pred.Y[:])
		mcChroma(s.d.prevRef, px, py, s.fwdPred, s.pred.Cb[:], s.pred.Cr[:], s.d.kern)
		s.pred.CopyTo(recon, px, py)
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
			s.mcLuma(s.d.prevRef, px, py, fwdMV, s.pred.Y[:])
		case bBwd:
			s.mcLuma(s.d.lastRef, px, py, bwdMV, s.pred.Y[:])
		case bBi:
			s.mcLuma(s.d.prevRef, px, py, fwdMV, s.pred.Y[:])
			s.mcLuma(s.d.lastRef, px, py, bwdMV, s.pred.YAlt[:])
			interp.Avg(s.pred.Y[:], 16, s.pred.YAlt[:], 16, 16, 16, s.d.kern)
		}
		mcChromaB(&s.pred, int(mode), s.d.prevRef, s.d.lastRef, px, py, fwdMV, bwdMV, s.d.kern)
		if err := s.decodeResidualMB(recon, px, py, q); err != nil {
			return err
		}
		s.dcPred = [3]int32{dcPredInit, dcPredInit, dcPredInit}
		return nil
	}
	return codec.ErrSyntax("B macroblock mode", int(mode))
}
