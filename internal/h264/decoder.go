package h264

import (
	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/dct"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/interp"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/motion"
	"hdvideobench/internal/quant"
)

// Decoder is the H.264-class decoder (the paper's FFmpeg-H.264 role):
// codec.FrameDecoder driving this package's slice decoder. Every slice
// has its own entropy reader and context models; deblocking is a
// frame-level pass after all slices have reconstructed, mirroring the
// encoder.
type Decoder struct {
	*codec.FrameDecoder
	hdr  container.Header
	kern kernel.Set

	refs *codec.RefList // the driver's reference list, from BeginFrame
	meta *frameMeta

	slices []*sliceDec
}

// sliceDec carries the per-slice decoder state.
type sliceDec struct {
	d   *Decoder
	r   symDec
	ctx *contexts

	qpel  interp.QPel
	predY [256]byte
	predC [2][64]byte

	bwdPredRow motion.MV

	top4  int
	topPx int

	qp, qpc int // this slice's quantizers (frame QP, or FlagSliceQ override)
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
		d.slices = append(d.slices, &sliceDec{d: d, ctx: newContexts()})
	}
}

// EndFrame implements codec.SliceDecoder: the encoder's deblocking pass.
func (d *Decoder) EndFrame(recon *frame.Frame, qp int) { deblockFrame(recon, d.meta, qp) }

// DecodeSlice implements codec.SliceDecoder.
func (d *Decoder) DecodeSlice(i int, bits []byte, recon *frame.Frame, ftype container.FrameType, span codec.SliceSpan, qp int) error {
	s := d.slices[i]
	s.qp, s.qpc = qp, quant.H264ChromaQP(qp)
	return s.decode(bits, recon, ftype, span)
}

// decode parses one slice's entropy stream into its macroblock rows.
//
//hdvlint:noalloc
func (s *sliceDec) decode(buf []byte, recon *frame.Frame, ftype container.FrameType, span codec.SliceSpan) error {
	s.top4 = span.Row * 4
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
				err = s.decodeIMB(recon, mbx, mby)
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

// readResidual parses CBP and coefficients into md.
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

	var scan [16]int32
	if i16 {
		md.lumaDCNZ = readCoeffs(r, &s.ctx.cbf[catLumaDC], s.ctx.sigDC[:], s.ctx.lastDC[:], s.ctx.levelDC[:], scan[:16])
		unscanBlock4(scan[:16], 0, &md.lumaDC)
	}
	start := 0
	if i16 {
		start = 1
	}
	for bi := 0; bi < 16; bi++ {
		md.luma[bi] = [16]int32{}
		md.lumaNZ[bi] = false
	}
	for g := 0; g < 4; g++ {
		if md.cbpLuma&(1<<g) == 0 {
			continue
		}
		for _, bi := range lumaGroupBlocks[g] {
			nz := readCoeffs(r, &s.ctx.cbf[catLuma], s.ctx.sig[:], s.ctx.last[:], s.ctx.level[:], scan[:16-start])
			unscanBlock4(scan[:16-start], start, &md.luma[bi])
			md.lumaNZ[bi] = nz
		}
	}
	for pl := 0; pl < 2; pl++ {
		md.chromaDC[pl] = [4]int32{}
		for ci := 0; ci < 4; ci++ {
			md.chroma[pl][ci] = [16]int32{}
		}
	}
	if md.cbpChroma >= 1 {
		for pl := 0; pl < 2; pl++ {
			var dcs [4]int32
			readCoeffs(r, &s.ctx.cbf[catChromaDC], s.ctx.sigDC[:], s.ctx.lastDC[:], s.ctx.levelDC[:], dcs[:])
			md.chromaDC[pl] = dcs
		}
	}
	if md.cbpChroma == 2 {
		for pl := 0; pl < 2; pl++ {
			for ci := 0; ci < 4; ci++ {
				readCoeffs(r, &s.ctx.cbf[catChromaAC], s.ctx.sig[:], s.ctx.last[:], s.ctx.level[:], scan[:15])
				unscanBlock4(scan[:15], 1, &md.chroma[pl][ci])
			}
		}
	}
	return r.err()
}

// reconLumaInter mirrors the encoder's inter luma reconstruction.
func (s *sliceDec) reconLumaInter(recon *frame.Frame, px, py int, md *mbData) {
	for bi := 0; bi < 16; bi++ {
		bx, by := 4*(bi%4), 4*(bi/4)
		ro := recon.YOrigin + (py+by)*recon.YStride + px + bx
		po := by*16 + bx
		if md.lumaNZ[bi] {
			blk := md.luma[bi]
			quant.H264Dequant(&blk, s.qp)
			dct.Inverse4(&blk)
			codec.Add4Clip(recon.Y, ro, recon.YStride, s.predY[:], po, 16, &blk, s.d.kern)
		} else {
			for r := 0; r < 4; r++ {
				copy(recon.Y[ro+r*recon.YStride:ro+r*recon.YStride+4],
					s.predY[po+r*16:po+r*16+4])
			}
		}
	}
}

func (s *sliceDec) reconChroma(recon *frame.Frame, px, py int, md *mbData) {
	cx, cy := px/2, py/2
	for pl := 0; pl < 2; pl++ {
		plane := recon.Cb
		if pl == 1 {
			plane = recon.Cr
		}
		dc := md.chromaDC[pl]
		if md.cbpChroma >= 1 {
			dct.Hadamard2(&dc)
			quant.H264DequantChromaDC(&dc, s.qpc)
		} else {
			dc = [4]int32{}
		}
		for ci := 0; ci < 4; ci++ {
			ox, oy := 4*(ci%2), 4*(ci/2)
			ro := recon.COrigin + (cy+oy)*recon.CStride + cx + ox
			po := oy*8 + ox
			blk := md.chroma[pl][ci]
			if md.cbpChroma == 2 {
				quant.H264Dequant(&blk, s.qpc)
			} else {
				blk = [16]int32{}
			}
			blk[0] = dc[ci]
			if md.cbpChroma >= 1 {
				dct.Inverse4(&blk)
				codec.Add4Clip(plane, ro, recon.CStride, s.predC[pl][:], po, 8, &blk, s.d.kern)
			} else {
				for r := 0; r < 4; r++ {
					copy(plane[ro+r*recon.CStride:ro+r*recon.CStride+4],
						s.predC[pl][po+r*8:po+r*8+4])
				}
			}
		}
	}
}

func (s *sliceDec) updateMetaNZ(px, py int, md *mbData, i16 bool) {
	m := s.d.meta
	bx4, by4 := px/4, py/4
	for bi := 0; bi < 16; bi++ {
		nz := md.lumaNZ[bi]
		if i16 && md.lumaDCNZ {
			nz = true
		}
		m.nz[(by4+bi/4)*m.w4+bx4+bi%4] = nz
	}
}

// --- intra -------------------------------------------------------------------

// reconI16 mirrors encodeI16Into's reconstruction.
func (s *sliceDec) reconI16(recon *frame.Frame, px, py int, md *mbData) {
	availLeft := px > 0
	availTop := py > s.topPx
	predI16(s.predY[:], recon.Y, recon.YOrigin, recon.YStride, px, py, md.i16Mode, availLeft, availTop)
	dcRec := md.lumaDC
	dct.Hadamard4(&dcRec, false)
	quant.H264DequantDC(&dcRec, s.qp)
	for bi := 0; bi < 16; bi++ {
		bx, by := 4*(bi%4), 4*(bi/4)
		ro := recon.YOrigin + (py+by)*recon.YStride + px + bx
		po := by*16 + bx
		blk := md.luma[bi]
		quant.H264Dequant(&blk, s.qp)
		blk[0] = dcRec[bi]
		dct.Inverse4(&blk)
		codec.Add4Clip(recon.Y, ro, recon.YStride, s.predY[:], po, 16, &blk, s.d.kern)
	}
}

// reconI4 mirrors encodeI4Into's sequential reconstruction.
func (s *sliceDec) reconI4(recon *frame.Frame, px, py int, md *mbData) {
	var pred [16]byte
	for bi := 0; bi < 16; bi++ {
		bx, by := 4*(bi%4), 4*(bi/4)
		gx4, gy4 := (px+bx)/4, (py+by)/4
		av := availI4(gx4, gy4, s.d.meta.w4, s.top4)
		predI4(pred[:], 4, recon.Y, recon.YOrigin, recon.YStride, px+bx, py+by, md.i4Modes[bi], av)
		ro := recon.YOrigin + (py+by)*recon.YStride + px + bx
		blk := md.luma[bi]
		quant.H264Dequant(&blk, s.qp)
		dct.Inverse4(&blk)
		codec.Add4Clip(recon.Y, ro, recon.YStride, pred[:], 0, 4, &blk, s.d.kern)
	}
}

func (s *sliceDec) intraChromaPred(recon *frame.Frame, px, py int) {
	cx, cy := px/2, py/2
	availTop := py > s.topPx
	predChromaDC(s.predC[0][:], recon.Cb, recon.COrigin, recon.CStride, cx, cy, px > 0, availTop)
	predChromaDC(s.predC[1][:], recon.Cr, recon.COrigin, recon.CStride, cx, cy, px > 0, availTop)
}

// readI16Mode parses the I16 prediction mode of the macroblock at (px, py).
//
//hdvlint:noalloc
func (s *sliceDec) readI16Mode(md *mbData, px, py int) error {
	md.i16Mode = int(s.r.ue(s.ctx.i16Mode[:], 2))
	if !i16Usable(md.i16Mode, px > 0, py > s.topPx) {
		return codec.ErrSyntax("I16 mode", int(md.i16Mode))
	}
	return nil
}

//hdvlint:noalloc
func (s *sliceDec) decodeIMB(recon *frame.Frame, mbx, mby int) error {
	px, py := mbx*16, mby*16
	var md mbData
	isI4 := s.r.bit(&s.ctx.mbType[0]) == 1
	if isI4 {
		md.mode = mI4x4
		for bi := 0; bi < 16; bi++ {
			md.i4Modes[bi] = int(s.r.ue(s.ctx.i4Mode[:], 3))
			if md.i4Modes[bi] >= numI4Modes {
				return codec.ErrSyntax("I4 mode", int(md.i4Modes[bi]))
			}
		}
	} else {
		md.mode = mI16x16
		if err := s.readI16Mode(&md, px, py); err != nil {
			return err
		}
	}
	if err := s.readResidual(&md, md.mode == mI16x16); err != nil {
		return err
	}
	if md.mode == mI4x4 {
		s.reconI4(recon, px, py, &md)
	} else {
		s.reconI16(recon, px, py, &md)
	}
	s.intraChromaPred(recon, px, py)
	s.reconChroma(recon, px, py, &md)
	s.d.meta.setBlock(px/4, py/4, 4, 4, motion.MV{}, -1)
	s.updateMetaNZ(px, py, &md, md.mode == mI16x16)
	return nil
}

// --- inter -------------------------------------------------------------------

// mcLumaPart motion-compensates one luma partition into predY.
func (s *sliceDec) mcLumaPart(ref *frame.Frame, px, py, ox, oy, w, h int, mv motion.MV) {
	ix, fx := codec.SplitQuarter(int(mv.X))
	iy, fy := codec.SplitQuarter(int(mv.Y))
	ix = codec.ClampMVToWindow(ix, px+ox, s.d.hdr.Width, w, codec.LumaMargin)
	iy = codec.ClampMVToWindow(iy, py+oy, s.d.hdr.Height, h, codec.LumaMargin)
	so := ref.YOrigin + (py+oy+iy)*ref.YStride + px + ox + ix
	s.qpel.Luma(s.predY[oy*16+ox:], 16, ref.Y, so, ref.YStride, w, h, fx, fy, s.d.kern)
}

func (s *sliceDec) mcChromaPart(ref *frame.Frame, px, py, ox, oy, w, h int, mv motion.MV) {
	cx := (px + ox) / 2
	cy := (py + oy) / 2
	ix := int(mv.X) >> 3
	iy := int(mv.Y) >> 3
	dx := int(mv.X) & 7
	dy := int(mv.Y) & 7
	ix = codec.ClampMVToWindow(ix, cx, s.d.hdr.Width/2, w/2, codec.ChromaMargin)
	iy = codec.ClampMVToWindow(iy, cy, s.d.hdr.Height/2, h/2, codec.ChromaMargin)
	so := ref.COrigin + (cy+iy)*ref.CStride + cx + ix
	do := (oy/2)*8 + ox/2
	interp.ChromaBilin(s.predC[0][do:], 8, ref.Cb[so:], ref.CStride, w/2, h/2, dx, dy, s.d.kern)
	interp.ChromaBilin(s.predC[1][do:], 8, ref.Cr[so:], ref.CStride, w/2, h/2, dx, dy, s.d.kern)
}

//hdvlint:noalloc
func (s *sliceDec) decodePMB(recon *frame.Frame, mbx, mby int) error {
	px, py := mbx*16, mby*16
	bx4, by4 := px/4, py/4

	if s.r.bit(&s.ctx.skip[0]) == 1 {
		mvp := s.d.meta.predictMV(bx4, by4, 4, s.top4)
		ref := s.d.refs.Get(0)
		s.mcLumaPart(ref, px, py, 0, 0, 16, 16, mvp)
		s.mcChromaPart(ref, px, py, 0, 0, 16, 16, mvp)
		var md mbData
		s.reconLumaInter(recon, px, py, &md)
		s.reconChroma(recon, px, py, &md)
		s.d.meta.setBlock(bx4, by4, 4, 4, mvp, 0)
		s.updateMetaNZ(px, py, &md, false)
		return nil
	}

	mode := int(s.r.ue(s.ctx.mbType[:], 3))
	switch mode {
	case mI16x16:
		var md mbData
		md.mode = mI16x16
		if err := s.readI16Mode(&md, px, py); err != nil {
			return err
		}
		if err := s.readResidual(&md, true); err != nil {
			return err
		}
		s.reconI16(recon, px, py, &md)
		s.intraChromaPred(recon, px, py)
		s.reconChroma(recon, px, py, &md)
		s.d.meta.setBlock(bx4, by4, 4, 4, motion.MV{}, -1)
		s.updateMetaNZ(px, py, &md, true)
		return nil
	case mP16x16, mP16x8, mP8x16, mP8x8:
		refIdx := 0
		if s.d.refs.Len() > 1 {
			refIdx = int(s.r.ue(s.ctx.refIdx[:], 2))
		}
		if refIdx >= s.d.refs.Len() {
			return codec.ErrSyntax("reference index", refIdx)
		}
		ref := s.d.refs.Get(refIdx)
		parts := partGeom[mode]
		var md mbData
		md.mode = mode
		md.ref = int8(refIdx)
		for pi, g := range parts {
			pmvp := s.d.meta.predictMV(bx4+g[0]/4, by4+g[1]/4, g[2]/4, s.top4)
			mv := motion.MV{
				X: int16(int32(pmvp.X) + s.r.se(s.ctx.mvd[:], 8)),
				Y: int16(int32(pmvp.Y) + s.r.se(s.ctx.mvd[:], 8)),
			}
			md.mvs[pi] = mv
			s.d.meta.setBlock(bx4+g[0]/4, by4+g[1]/4, g[2]/4, g[3]/4, mv, int8(refIdx))
			s.mcLumaPart(ref, px, py, g[0], g[1], g[2], g[3], mv)
			s.mcChromaPart(ref, px, py, g[0], g[1], g[2], g[3], mv)
		}
		if err := s.readResidual(&md, false); err != nil {
			return err
		}
		s.reconLumaInter(recon, px, py, &md)
		s.reconChroma(recon, px, py, &md)
		s.updateMetaNZ(px, py, &md, false)
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
		mvp := s.d.meta.predictMV(bx4, by4, 4, s.top4)
		s.mcLumaPart(fwdRef, px, py, 0, 0, 16, 16, mvp)
		s.mcChromaPart(fwdRef, px, py, 0, 0, 16, 16, mvp)
		var md mbData
		s.reconLumaInter(recon, px, py, &md)
		s.reconChroma(recon, px, py, &md)
		s.d.meta.setBlock(bx4, by4, 4, 4, mvp, 0)
		s.updateMetaNZ(px, py, &md, false)
		return nil
	}

	mode := int(s.r.ue(s.ctx.mbType[:], 3))
	if mode == mBI16x16 {
		var md mbData
		md.mode = mI16x16
		if err := s.readI16Mode(&md, px, py); err != nil {
			return err
		}
		if err := s.readResidual(&md, true); err != nil {
			return err
		}
		s.reconI16(recon, px, py, &md)
		s.intraChromaPred(recon, px, py)
		s.reconChroma(recon, px, py, &md)
		s.d.meta.setBlock(bx4, by4, 4, 4, motion.MV{}, -1)
		s.updateMetaNZ(px, py, &md, true)
		return nil
	}
	if mode > mBBi {
		return codec.ErrSyntax("B macroblock mode", int(mode))
	}

	mvpF := s.d.meta.predictMV(bx4, by4, 4, s.top4)
	var fwdMV, bwdMV motion.MV
	if mode == mBFwd || mode == mBBi {
		fwdMV = motion.MV{
			X: int16(int32(mvpF.X) + s.r.se(s.ctx.mvd[:], 8)),
			Y: int16(int32(mvpF.Y) + s.r.se(s.ctx.mvd[:], 8)),
		}
	}
	if mode == mBBwd || mode == mBBi {
		bwdMV = motion.MV{
			X: int16(int32(s.bwdPredRow.X) + s.r.se(s.ctx.mvd[:], 8)),
			Y: int16(int32(s.bwdPredRow.Y) + s.r.se(s.ctx.mvd[:], 8)),
		}
		s.bwdPredRow = bwdMV
	}

	switch mode {
	case mBFwd:
		s.mcLumaPart(fwdRef, px, py, 0, 0, 16, 16, fwdMV)
		s.mcChromaPart(fwdRef, px, py, 0, 0, 16, 16, fwdMV)
		s.d.meta.setBlock(bx4, by4, 4, 4, fwdMV, 0)
	case mBBwd:
		s.mcLumaPart(bwdRef, px, py, 0, 0, 16, 16, bwdMV)
		s.mcChromaPart(bwdRef, px, py, 0, 0, 16, 16, bwdMV)
		s.d.meta.setBlock(bx4, by4, 4, 4, bwdMV, 0)
	case mBBi:
		var alt [256]byte
		s.mcLumaPart(fwdRef, px, py, 0, 0, 16, 16, fwdMV)
		copy(alt[:], s.predY[:])
		s.mcLumaPart(bwdRef, px, py, 0, 0, 16, 16, bwdMV)
		interp.Avg(s.predY[:], 16, alt[:], 16, 16, 16, s.d.kern)

		var cbF, crF [64]byte
		s.mcChromaPart(fwdRef, px, py, 0, 0, 16, 16, fwdMV)
		copy(cbF[:], s.predC[0][:])
		copy(crF[:], s.predC[1][:])
		s.mcChromaPart(bwdRef, px, py, 0, 0, 16, 16, bwdMV)
		interp.Avg(s.predC[0][:], 8, cbF[:], 8, 8, 8, s.d.kern)
		interp.Avg(s.predC[1][:], 8, crF[:], 8, 8, 8, s.d.kern)
		s.d.meta.setBlock(bx4, by4, 4, 4, fwdMV, 0)
	}

	var md mbData
	md.mode = mode
	if err := s.readResidual(&md, false); err != nil {
		return err
	}
	s.reconLumaInter(recon, px, py, &md)
	s.reconChroma(recon, px, py, &md)
	s.updateMetaNZ(px, py, &md, false)
	return nil
}
