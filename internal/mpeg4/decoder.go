package mpeg4

import (
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

// Decoder is the MPEG-4 ASP-class decoder (the paper's Xvid decoder
// role): codec.FrameDecoder driving this package's slice decoder.
type Decoder struct {
	*codec.FrameDecoder
	hdr  container.Header
	kern kernel.Set

	prevRef, lastRef *frame.Frame // the frame's references, coding order
	slices           []*sliceDec
}

// sliceDec carries the per-slice decoder state.
type sliceDec struct {
	d  *Decoder
	br bitstream.Reader

	pred predBuf
	qpel interp.QPel

	dcInit  int32 // DC predictor reset value, derived from the slice's q
	dcPred  [3]int32
	fwdPred motion.MV
	bwdPred motion.MV
}

// NewDecoder returns a decoder for the stream described by hdr.
func NewDecoder(hdr container.Header, kern kernel.Set) (*Decoder, error) {
	d := &Decoder{hdr: hdr, kern: kern}
	var err error
	if d.FrameDecoder, err = codec.NewFrameDecoder("mpeg4", hdr, container.CodecMPEG4, 1, 31, 2, d); err != nil {
		return nil, err
	}
	return d, nil
}

// BeginFrame implements codec.SliceDecoder: the mirror of the encoder's.
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
	s.dcInit = 1024 / quant.Mpeg4DCScaler(q)
	mbCols := s.d.hdr.Width / 16
	for mby := span.Row; mby < span.Row+span.Rows; mby++ {
		s.dcPred = [3]int32{s.dcInit, s.dcInit, s.dcInit}
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

func (s *sliceDec) resetDCPred() {
	s.dcPred = [3]int32{s.dcInit, s.dcInit, s.dcInit}
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
	quant.Mpeg4DequantIntra(&blk, q)
	dct.Inverse8(&blk)
	codec.Store8Clip(rec, roff, rstride, &blk)
	return nil
}

// mcLuma fills dst (stride 16) with the quarter-pel luma prediction.
func (s *sliceDec) mcLuma(ref *frame.Frame, px, py, w, h int, mv motion.MV, dst []byte) {
	ix, fx := codec.SplitQuarter(int(mv.X))
	iy, fy := codec.SplitQuarter(int(mv.Y))
	ix = codec.ClampMVToWindow(ix, px, s.d.hdr.Width, w, codec.LumaMargin)
	iy = codec.ClampMVToWindow(iy, py, s.d.hdr.Height, h, codec.LumaMargin)
	so := ref.YOrigin + (py+iy)*ref.YStride + px + ix
	s.qpel.Luma(dst, 16, ref.Y, so, ref.YStride, w, h, fx, fy, s.d.kern)
}

func (s *sliceDec) mcChroma(ref *frame.Frame, px, py int, mv motion.MV, cb, cr []byte) {
	cvx := chromaFromLuma(int(mv.X))
	cvy := chromaFromLuma(int(mv.Y))
	ix, fx := codec.SplitHalf(cvx)
	iy, fy := codec.SplitHalf(cvy)
	cx, cy := px/2, py/2
	ix = codec.ClampMVToWindow(ix, cx, s.d.hdr.Width/2, 8, codec.ChromaMargin)
	iy = codec.ClampMVToWindow(iy, cy, s.d.hdr.Height/2, 8, codec.ChromaMargin)
	so := ref.COrigin + (cy+iy)*ref.CStride + cx + ix
	interp.HalfPel(cb, 8, ref.Cb[so:], ref.CStride, 8, 8, fx, fy, s.d.kern)
	interp.HalfPel(cr, 8, ref.Cr[so:], ref.CStride, 8, 8, fx, fy, s.d.kern)
}

func (s *sliceDec) mcChroma4MV(ref *frame.Frame, px, py int, mvs *[4]motion.MV, cb, cr []byte) {
	sx, sy := 0, 0
	for _, v := range mvs {
		sx += int(v.X)
		sy += int(v.Y)
	}
	avg := motion.MV{X: int16(sx / 4), Y: int16(sy / 4)}
	s.mcChroma(ref, px, py, avg, cb, cr)
}

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
			quant.Mpeg4DequantInter(&blk, q)
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
		quant.Mpeg4DequantInter(&blk, q)
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
		quant.Mpeg4DequantInter(&blk, q)
		dct.Inverse8(&blk)
		codec.Add8Clip(recon.Cr, cro, recon.CStride, s.pred.cr[:], 0, 8, &blk, s.d.kern)
	} else {
		codec.Copy8(recon.Cr, cro, recon.CStride, s.pred.cr[:], 0, 8)
	}
	return nil
}

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

func (s *sliceDec) readMV(pred motion.MV) motion.MV {
	return motion.MV{
		X: int16(int32(pred.X) + entropy.ReadSE(&s.br)),
		Y: int16(int32(pred.Y) + entropy.ReadSE(&s.br)),
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
		s.mcLuma(s.d.lastRef, px, py, 16, 16, motion.MV{}, s.pred.y[:])
		s.mcChroma(s.d.lastRef, px, py, motion.MV{}, s.pred.cb[:], s.pred.cr[:])
		s.copyPredToRecon(recon, px, py)
		s.fwdPred = motion.MV{}
		s.resetDCPred()
		return nil
	case pInter:
		mv := s.readMV(s.fwdPred)
		s.fwdPred = mv
		s.mcLuma(s.d.lastRef, px, py, 16, 16, mv, s.pred.y[:])
		s.mcChroma(s.d.lastRef, px, py, mv, s.pred.cb[:], s.pred.cr[:])
		if err := s.decodeResidualMB(recon, px, py, q); err != nil {
			return err
		}
		s.resetDCPred()
		return nil
	case pInter4V:
		var mvs [4]motion.MV
		prev := s.fwdPred
		for i := 0; i < 4; i++ {
			mvs[i] = s.readMV(prev)
			prev = mvs[i]
		}
		s.fwdPred = mvs[3]
		var sub [256]byte
		for i := 0; i < 4; i++ {
			bx := px + 8*(i%2)
			by := py + 8*(i/2)
			s.mcLuma(s.d.lastRef, bx, by, 8, 8, mvs[i], sub[:])
			for r := 0; r < 8; r++ {
				copy(s.pred.y[(8*(i/2)+r)*16+8*(i%2):(8*(i/2)+r)*16+8*(i%2)+8], sub[r*16:r*16+8])
			}
		}
		s.mcChroma4MV(s.d.lastRef, px, py, &mvs, s.pred.cb[:], s.pred.cr[:])
		if err := s.decodeResidualMB(recon, px, py, q); err != nil {
			return err
		}
		s.resetDCPred()
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
		s.mcLuma(s.d.prevRef, px, py, 16, 16, s.fwdPred, s.pred.y[:])
		s.mcChroma(s.d.prevRef, px, py, s.fwdPred, s.pred.cb[:], s.pred.cr[:])
		s.copyPredToRecon(recon, px, py)
		s.resetDCPred()
		return nil
	case bFwd, bBwd, bBi:
		var fwdMV, bwdMV motion.MV
		if mode == bFwd || mode == bBi {
			fwdMV = s.readMV(s.fwdPred)
			s.fwdPred = fwdMV
		}
		if mode == bBwd || mode == bBi {
			bwdMV = s.readMV(s.bwdPred)
			s.bwdPred = bwdMV
		}
		switch mode {
		case bFwd:
			s.mcLuma(s.d.prevRef, px, py, 16, 16, fwdMV, s.pred.y[:])
			s.mcChroma(s.d.prevRef, px, py, fwdMV, s.pred.cb[:], s.pred.cr[:])
		case bBwd:
			s.mcLuma(s.d.lastRef, px, py, 16, 16, bwdMV, s.pred.y[:])
			s.mcChroma(s.d.lastRef, px, py, bwdMV, s.pred.cb[:], s.pred.cr[:])
		case bBi:
			s.mcLuma(s.d.prevRef, px, py, 16, 16, fwdMV, s.pred.y[:])
			s.mcLuma(s.d.lastRef, px, py, 16, 16, bwdMV, s.pred.yAlt[:])
			interp.Avg(s.pred.y[:], 16, s.pred.yAlt[:], 16, 16, 16, s.d.kern)
			s.mcChroma(s.d.prevRef, px, py, fwdMV, s.pred.cb[:], s.pred.cr[:])
			s.mcChroma(s.d.lastRef, px, py, bwdMV, s.pred.cbAlt[:], s.pred.crAlt[:])
			interp.Avg(s.pred.cb[:], 8, s.pred.cbAlt[:], 8, 8, 8, s.d.kern)
			interp.Avg(s.pred.cr[:], 8, s.pred.crAlt[:], 8, 8, 8, s.d.kern)
		}
		if err := s.decodeResidualMB(recon, px, py, q); err != nil {
			return err
		}
		s.resetDCPred()
		return nil
	}
	return codec.ErrSyntax("B macroblock mode", int(mode))
}
