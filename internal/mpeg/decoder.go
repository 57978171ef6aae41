package mpeg

import (
	"fmt"

	"hdvideobench/internal/bitstream"
	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/entropy"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/interp"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/motion"
)

// Decoder is the MPEG-class decoder of one profile (the paper's libmpeg2
// or Xvid decoder role): codec.FrameDecoder driving this package's slice
// decoder.
type Decoder struct {
	*codec.FrameDecoder
	profile
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
	qpel *interp.QPel // quarter-pel scratch (ASP only; see newSliceDec)

	dcInit  int32 // DC predictor reset value, derived from the slice's q
	dcPred  [3]int32
	fwdPred motion.MV
	bwdPred motion.MV
}

// NewDecoder returns a decoder for the stream described by hdr, in the
// profile hdr.Codec names. The kernel set selects the scalar or SWAR
// motion-compensation path.
func NewDecoder(hdr container.Header, kern kernel.Set) (*Decoder, error) {
	p, name, ok := profileFor(hdr.Codec)
	if !ok {
		return nil, fmt.Errorf("mpeg: stream codec is %v", hdr.Codec)
	}
	d := &Decoder{profile: p, hdr: hdr, kern: kern}
	var err error
	if d.FrameDecoder, err = codec.NewFrameDecoder(name, hdr, hdr.Codec, 1, 31, 2, d); err != nil {
		return nil, err
	}
	return d, nil
}

// BeginFrame implements codec.SliceDecoder: P pictures predict from the
// last reference, B pictures from the two around them.
func (d *Decoder) BeginFrame(refs *codec.RefList, slices int) {
	d.lastRef, d.prevRef = refs.Get(0), refs.Get(1)
	for len(d.slices) < slices {
		d.slices = append(d.slices, d.newSliceDec())
	}
}

// newSliceDec allocates a slice decoder. An ASP one gets its quarter-pel
// scratch (2 KiB) in the same allocation; an MPEG-2 one carries none.
func (d *Decoder) newSliceDec() *sliceDec {
	if !d.asp {
		return &sliceDec{d: d}
	}
	a := &struct {
		sliceDec
		qpel interp.QPel
	}{sliceDec: sliceDec{d: d}}
	a.sliceDec.qpel = &a.qpel
	return &a.sliceDec
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
	s.dcInit = s.d.dcInit(q)
	mbCols := s.d.hdr.Width / 16
	for mby := span.Row; mby < span.Row+span.Rows; mby++ {
		s.resetDCPred()
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
	reconIntraBlock(rec, roff, rstride, &blk, q, s.d.asp)
	return nil
}

// mcLuma fills dst (stride 16) with the w×h luma prediction for mv:
// bilinear half-pel for MPEG-2, 6-tap quarter-pel for ASP.
func (s *sliceDec) mcLuma(ref *frame.Frame, px, py, w, h int, mv motion.MV, dst []byte) {
	ix, fx, iy, fy := s.d.splitMV(mv)
	ix = codec.ClampMVToWindow(ix, px, s.d.hdr.Width, w, codec.LumaMargin)
	iy = codec.ClampMVToWindow(iy, py, s.d.hdr.Height, h, codec.LumaMargin)
	so := ref.YOrigin + (py+iy)*ref.YStride + px + ix
	if s.d.asp {
		s.qpel.Luma(dst, 16, ref.Y, so, ref.YStride, w, h, fx, fy, s.d.kern)
		return
	}
	interp.HalfPel(dst, 16, ref.Y[so:], ref.YStride, w, h, fx, fy, s.d.kern)
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
	reconInterMB(recon, px, py, &s.pred, &blks, cbp, q, s.d.asp, s.d.kern)
	return nil
}

// readMV reads a vector coded as its difference from the predictor pred.
func (s *sliceDec) readMV(pred motion.MV) motion.MV {
	return motion.MV{
		X: int16(int32(pred.X) + entropy.ReadSE(&s.br)),
		Y: int16(int32(pred.Y) + entropy.ReadSE(&s.br)),
	}
}

//hdvlint:noalloc
func (s *sliceDec) decodePMB(recon *frame.Frame, mbx, mby int, q int32) error {
	px, py := mbx*16, mby*16
	ref, asp, k := s.d.lastRef, s.d.asp, s.d.kern
	mode := entropy.ReadUE(&s.br)
	switch mode {
	case pIntra:
		if err := s.decodeIntraMB(recon, mbx, mby, q); err != nil {
			return err
		}
		s.fwdPred = motion.MV{}
		return nil
	case pSkip:
		s.mcLuma(ref, px, py, 16, 16, motion.MV{}, s.pred.Y[:])
		mcChroma(ref, px, py, motion.MV{}, s.pred.Cb[:], s.pred.Cr[:], asp, k)
		s.pred.CopyTo(recon, px, py)
		s.fwdPred = motion.MV{}
		s.resetDCPred()
		return nil
	case pInter:
		mv := s.readMV(s.fwdPred)
		s.fwdPred = mv
		s.mcLuma(ref, px, py, 16, 16, mv, s.pred.Y[:])
		mcChroma(ref, px, py, mv, s.pred.Cb[:], s.pred.Cr[:], asp, k)
		if err := s.decodeResidualMB(recon, px, py, q); err != nil {
			return err
		}
		s.resetDCPred()
		return nil
	case pInter4V:
		if !asp {
			break
		}
		var mvs [4]motion.MV
		prev := s.fwdPred
		for i := 0; i < 4; i++ {
			mvs[i] = s.readMV(prev)
			prev = mvs[i]
		}
		s.fwdPred = mvs[3]
		for i, v := range mvs {
			s.mcLuma(ref, px+8*(i%2), py+8*(i/2), 8, 8, v, s.pred.Y[8*(i/2)*16+8*(i%2):])
		}
		mcChroma4MV(ref, px, py, &mvs, s.pred.Cb[:], s.pred.Cr[:], k)
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
	fwdRef, bwdRef, asp, k := s.d.prevRef, s.d.lastRef, s.d.asp, s.d.kern
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
		s.mcLuma(fwdRef, px, py, 16, 16, s.fwdPred, s.pred.Y[:])
		mcChroma(fwdRef, px, py, s.fwdPred, s.pred.Cb[:], s.pred.Cr[:], asp, k)
		s.pred.CopyTo(recon, px, py)
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
			s.mcLuma(fwdRef, px, py, 16, 16, fwdMV, s.pred.Y[:])
		case bBwd:
			s.mcLuma(bwdRef, px, py, 16, 16, bwdMV, s.pred.Y[:])
		case bBi:
			s.mcLuma(fwdRef, px, py, 16, 16, fwdMV, s.pred.Y[:])
			s.mcLuma(bwdRef, px, py, 16, 16, bwdMV, s.pred.YAlt[:])
			interp.Avg(s.pred.Y[:], 16, s.pred.YAlt[:], 16, 16, 16, k)
		}
		mcChromaB(&s.pred, int(mode), fwdRef, bwdRef, px, py, fwdMV, bwdMV, asp, k)
		if err := s.decodeResidualMB(recon, px, py, q); err != nil {
			return err
		}
		s.resetDCPred()
		return nil
	}
	return codec.ErrSyntax("B macroblock mode", int(mode))
}
