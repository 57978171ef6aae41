package h264

import (
	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/interp"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/motion"
)

// Decoder is the H.264-class decoder (the paper's FFmpeg-H.264 role):
// codec.FrameDecoder driving this package's slice decoder. Every slice
// has its own entropy reader and context models; deblocking is a
// frame-level pass after all slices have reconstructed, the encoder's.
type Decoder struct {
	*codec.FrameDecoder
	hdr  container.Header
	kern kernel.Set

	refs *codec.RefList // the driver's reference list, from BeginFrame
	meta *frameMeta

	slices []*sliceDec
}

// sliceDec carries the per-slice decoder state: the reconstruction it
// shares with the encoder, the entropy reader, luma interpolation scratch
// and the row-local backward MV predictor.
type sliceDec struct {
	mbRecon
	d   *Decoder
	r   symDec
	ctx *contexts

	qpel interp.QPel

	bwdPredRow motion.MV
}

// NewDecoder returns a decoder for the stream described by hdr.
func NewDecoder(hdr container.Header, kern kernel.Set) (*Decoder, error) {
	refs := int(hdr.Flags>>flagRefsShift) & flagRefsMask
	if refs < 1 {
		refs = 1
	}
	d := &Decoder{hdr: hdr, kern: kern}
	var err error
	if d.FrameDecoder, err = codec.NewFrameDecoder("h264", hdr, container.CodecH264, 0, 51, refs, d); err != nil {
		return nil, err
	}
	d.meta = newFrameMeta(hdr.Width, hdr.Height)
	return d, nil
}

// BeginFrame implements codec.SliceDecoder.
func (d *Decoder) BeginFrame(refs *codec.RefList, slices int) {
	d.refs = refs
	d.meta.reset()
	for len(d.slices) < slices {
		d.slices = append(d.slices, &sliceDec{mbRecon: mbRecon{kern: d.kern, meta: d.meta}, d: d, ctx: newContexts()})
	}
}

// EndFrame implements codec.SliceDecoder: the encoder's deblocking pass.
func (d *Decoder) EndFrame(recon *frame.Frame, qp int) { deblockFrame(recon, d.meta, qp) }

// DecodeSlice implements codec.SliceDecoder.
func (d *Decoder) DecodeSlice(i int, bits []byte, recon *frame.Frame, ftype container.FrameType, span codec.SliceSpan, qp int) error {
	s := d.slices[i]
	s.qp = qp
	return s.decode(bits, recon, ftype, span)
}

// decode parses one slice's entropy stream into its macroblock rows.
//
//hdvlint:noalloc
func (s *sliceDec) decode(buf []byte, recon *frame.Frame, ftype container.FrameType, span codec.SliceSpan) error {
	s.topPx = span.Row * 16
	s.r.reset(buf, s.d.hdr.Flags&flagVLC != 0)
	s.ctx.reset()

	mbCols := s.d.hdr.Width / 16
	for mby := span.Row; mby < span.Row+span.Rows; mby++ {
		s.bwdPredRow = motion.MV{}
		for mbx := 0; mbx < mbCols; mbx++ {
			var err error
			switch ftype {
			case container.FrameI:
				err = s.decodeIntraMB(recon, mbx*16, mby*16, s.r.bit(&s.ctx.mbType[0]) == 1)
			case container.FrameP:
				err = s.decodePMB(recon, mbx, mby)
			default:
				err = s.decodeBMB(recon, mbx, mby)
			}
			if err != nil {
				return err
			}
		}
	}
	if err := s.r.err(); err != nil {
		return codec.ErrOverrun(err)
	}
	return nil
}

// --- residual ----------------------------------------------------------------

// readResidual parses CBP and coefficients into md, which is zero but for
// its prediction fields: only coded coefficients are stored, in raster
// order.
//
//hdvlint:noalloc
func (s *sliceDec) readResidual(md *mbData, i16 bool) error {
	r := &s.r
	md.cbpLuma = 0
	for g := 0; g < 4; g++ {
		md.cbpLuma |= r.bit(&s.ctx.cbpLuma[g]) << g
	}
	md.cbpChroma = int(r.ue(s.ctx.chromaCBP[:], 2))
	if md.cbpChroma > 2 {
		return codec.ErrSyntax("chroma CBP", int(md.cbpChroma))
	}

	start := 0
	if i16 {
		md.lumaDCNZ = r.coeffs(&s.ctx.cbf[catLumaDC], s.ctx.sigDC[:], s.ctx.lastDC[:], s.ctx.levelDC[:], zigzag4[:], md.lumaDC[:])
		start = 1
	}
	for g := 0; g < 4; g++ {
		if md.cbpLuma&(1<<g) == 0 {
			continue
		}
		for _, bi := range lumaGroupBlocks[g] {
			md.lumaNZ[bi] = r.coeffs(&s.ctx.cbf[catLuma], s.ctx.sig[:], s.ctx.last[:], s.ctx.level[:], zigzag4[start:], md.luma[bi][:])
		}
	}
	if md.cbpChroma >= 1 {
		for pl := 0; pl < 2; pl++ {
			r.coeffs(&s.ctx.cbf[catChromaDC], s.ctx.sigDC[:], s.ctx.lastDC[:], s.ctx.levelDC[:], dcScan2[:], md.chromaDC[pl][:])
		}
	}
	if md.cbpChroma == 2 {
		for pl := 0; pl < 2; pl++ {
			for ci := 0; ci < 4; ci++ {
				r.coeffs(&s.ctx.cbf[catChromaAC], s.ctx.sig[:], s.ctx.last[:], s.ctx.level[:], zigzag4[1:], md.chroma[pl][ci][:])
			}
		}
	}
	return r.err()
}

// --- intra -------------------------------------------------------------------

// decodeIntraMB parses and reconstructs an intra macroblock at (px, py)
// whose type, I4×4 or I16×16, has been read.
//
//hdvlint:noalloc
func (s *sliceDec) decodeIntraMB(recon *frame.Frame, px, py int, i4 bool) error {
	var md mbData
	md.mode = mI16x16
	if i4 {
		md.mode = mI4x4
		for bi := 0; bi < 16; bi++ {
			md.i4Modes[bi] = int(s.r.ue(s.ctx.i4Mode[:], 3))
			if md.i4Modes[bi] >= numI4Modes {
				return codec.ErrSyntax("I4 mode", int(md.i4Modes[bi]))
			}
		}
	} else {
		md.i16Mode = int(s.r.ue(s.ctx.i16Mode[:], 2))
		if !i16Usable(md.i16Mode, px > 0, py > s.topPx) {
			return codec.ErrSyntax("I16 mode", int(md.i16Mode))
		}
	}
	if err := s.readResidual(&md, !i4); err != nil {
		return err
	}
	if i4 {
		s.reconI4(recon, px, py, &md)
	} else {
		s.predictI16(recon, px, py, md.i16Mode)
	}
	s.predictIntraChroma(recon, px, py)
	s.reconIntraMB(recon, px, py, &md)
	return nil
}

// reconI4 predicts and reconstructs an I4×4 macroblock's luma block by
// block, in coding order.
//
//hdvlint:noalloc
func (s *sliceDec) reconI4(recon *frame.Frame, px, py int, md *mbData) {
	var pred [16]byte
	for bi := 0; bi < 16; bi++ {
		bx, by := 4*(bi%4), 4*(bi/4)
		gx4, gy4 := (px+bx)/4, (py+by)/4
		av := availI4(gx4, gy4, s.meta.w4, s.top4())
		predI4(pred[:], 4, recon.Y, recon.YOrigin, recon.YStride, px+bx, py+by, md.i4Modes[bi], av)
		s.reconI4Block(recon, px, py, bi, &pred, md.luma[bi])
	}
}

// --- inter -------------------------------------------------------------------

// mcLumaPart motion-compensates one luma partition into predY.
//
//hdvlint:noalloc
func (s *sliceDec) mcLumaPart(ref *frame.Frame, px, py, ox, oy, w, h int, mv motion.MV) {
	ix, fx := codec.SplitQuarter(int(mv.X))
	iy, fy := codec.SplitQuarter(int(mv.Y))
	ix = codec.ClampMVToWindow(ix, px+ox, s.d.hdr.Width, w, codec.LumaMargin)
	iy = codec.ClampMVToWindow(iy, py+oy, s.d.hdr.Height, h, codec.LumaMargin)
	so := ref.YOrigin + (py+oy+iy)*ref.YStride + px + ox + ix
	s.qpel.Luma(s.predY[oy*16+ox:], 16, ref.Y, so, ref.YStride, w, h, fx, fy, s.kern)
}

// decodeSkipMB reconstructs a skipped macroblock: the 16×16 prediction
// from ref at the predicted vector, without residual.
//
//hdvlint:noalloc
func (s *sliceDec) decodeSkipMB(recon, ref *frame.Frame, px, py int) {
	mvp := s.meta.predictMV(px/4, py/4, 4, s.top4())
	s.mcLumaPart(ref, px, py, 0, 0, 16, 16, mvp)
	s.mcChromaPart(ref, px, py, 0, 0, 16, 16, mvp)
	s.meta.setBlock(px/4, py/4, 4, 4, mvp, 0)
	var md mbData
	s.reconInterMB(recon, px, py, &md)
}

//hdvlint:noalloc
func (s *sliceDec) decodePMB(recon *frame.Frame, mbx, mby int) error {
	px, py := mbx*16, mby*16
	bx4, by4 := px/4, py/4

	if s.r.bit(&s.ctx.skip[0]) == 1 {
		s.decodeSkipMB(recon, s.d.refs.Get(0), px, py)
		return nil
	}

	mode := int(s.r.ue(s.ctx.mbType[:], 3))
	switch mode {
	case mI16x16:
		return s.decodeIntraMB(recon, px, py, false)
	case mP16x16, mP16x8, mP8x16, mP8x8:
		refIdx := 0
		if s.d.refs.Len() > 1 {
			refIdx = int(s.r.ue(s.ctx.refIdx[:], 2))
		}
		if refIdx >= s.d.refs.Len() {
			return codec.ErrSyntax("reference index", refIdx)
		}
		ref := s.d.refs.Get(refIdx)
		var md mbData
		md.mode = mode
		md.ref = int8(refIdx)
		for pi, g := range partGeom[mode] {
			pmvp := s.meta.predictMV(bx4+g[0]/4, by4+g[1]/4, g[2]/4, s.top4())
			mv := motion.MV{
				X: int16(int32(pmvp.X) + s.r.se(s.ctx.mvd[:], 8)),
				Y: int16(int32(pmvp.Y) + s.r.se(s.ctx.mvd[:], 8)),
			}
			md.mvs[pi] = mv
			s.meta.setBlock(bx4+g[0]/4, by4+g[1]/4, g[2]/4, g[3]/4, mv, int8(refIdx))
			s.mcLumaPart(ref, px, py, g[0], g[1], g[2], g[3], mv)
			s.mcChromaPart(ref, px, py, g[0], g[1], g[2], g[3], mv)
		}
		if err := s.readResidual(&md, false); err != nil {
			return err
		}
		s.reconInterMB(recon, px, py, &md)
		return nil
	}
	return codec.ErrSyntax("P macroblock mode", int(mode))
}

//hdvlint:noalloc
func (s *sliceDec) decodeBMB(recon *frame.Frame, mbx, mby int) error {
	px, py := mbx*16, mby*16
	bx4, by4 := px/4, py/4
	fwdRef := s.d.refs.Get(1)
	bwdRef := s.d.refs.Get(0)

	if s.r.bit(&s.ctx.skip[0]) == 1 {
		s.decodeSkipMB(recon, fwdRef, px, py)
		return nil
	}

	mode := int(s.r.ue(s.ctx.mbType[:], 3))
	if mode == mBI16x16 {
		return s.decodeIntraMB(recon, px, py, false)
	}
	if mode > mBBi {
		return codec.ErrSyntax("B macroblock mode", int(mode))
	}

	mvpF := s.meta.predictMV(bx4, by4, 4, s.top4())
	var fwdMV, bwdMV motion.MV
	if mode == mBFwd || mode == mBBi {
		fwdMV = motion.MV{
			X: int16(int32(mvpF.X) + s.r.se(s.ctx.mvd[:], 8)),
			Y: int16(int32(mvpF.Y) + s.r.se(s.ctx.mvd[:], 8)),
		}
	}
	mv := fwdMV
	if mode == mBBwd || mode == mBBi {
		bwdMV = motion.MV{
			X: int16(int32(s.bwdPredRow.X) + s.r.se(s.ctx.mvd[:], 8)),
			Y: int16(int32(s.bwdPredRow.Y) + s.r.se(s.ctx.mvd[:], 8)),
		}
		s.bwdPredRow = bwdMV
		if mode == mBBwd {
			mv = bwdMV
		}
	}

	switch mode {
	case mBFwd:
		s.mcLumaPart(fwdRef, px, py, 0, 0, 16, 16, fwdMV)
	case mBBwd:
		s.mcLumaPart(bwdRef, px, py, 0, 0, 16, 16, bwdMV)
	case mBBi:
		var alt [256]byte
		s.mcLumaPart(fwdRef, px, py, 0, 0, 16, 16, fwdMV)
		copy(alt[:], s.predY[:])
		s.mcLumaPart(bwdRef, px, py, 0, 0, 16, 16, bwdMV)
		interp.Avg(s.predY[:], 16, alt[:], 16, 16, 16, s.kern)
	}
	s.mcChromaB(mode, fwdRef, bwdRef, px, py, fwdMV, bwdMV)
	s.meta.setBlock(bx4, by4, 4, 4, mv, 0)

	var md mbData
	md.mode = mode
	if err := s.readResidual(&md, false); err != nil {
		return err
	}
	s.reconInterMB(recon, px, py, &md)
	return nil
}
