package h264

import (
	"hdvideobench/internal/codec"
	"hdvideobench/internal/dct"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/interp"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/motion"
	"hdvideobench/internal/quant"
)

// mbRecon is macroblock reconstruction, written once. The encoder's row
// coder (rowEnc) and the decoder's slice coder (sliceDec) both embed it
// and call the same methods on the modes, vectors and quantized
// coefficients they decided or parsed — intra and chroma prediction,
// dequantization, inverse transforms, the clamped add and the meta-grid
// updates the deblocking filter reads — so the encoder's reconstruction
// is the decoder's output by construction. Luma motion compensation is
// the one step each side does its own way: the encoder reads its
// references' precomputed half-pel planes, the decoder interpolates per
// block (interp's tests hold the two bit-exact).
type mbRecon struct {
	kern  kernel.Set
	meta  *frameMeta
	qp    int // the slice's quantizer; chroma's follows from it
	topPx int // the slice's top row in pixels: nothing above it is available

	predY [256]byte   // 16×16 luma prediction
	predC [2][64]byte // 8×8 Cb and Cr predictions
}

// top4 is the slice's top row in 4×4-block units.
func (m *mbRecon) top4() int { return m.topPx / 4 }

// predictI16 forms the I16×16 luma prediction for mode in predY.
//
//hdvlint:noalloc
func (m *mbRecon) predictI16(recon *frame.Frame, px, py, mode int) {
	predI16(m.predY[:], recon.Y, recon.YOrigin, recon.YStride, px, py, mode, px > 0, py > m.topPx)
}

// predictIntraChroma forms an intra macroblock's DC chroma prediction in
// predC.
//
//hdvlint:noalloc
func (m *mbRecon) predictIntraChroma(recon *frame.Frame, px, py int) {
	cx, cy := px/2, py/2
	availTop := py > m.topPx
	predChromaDC(m.predC[0][:], recon.Cb, recon.COrigin, recon.CStride, cx, cy, px > 0, availTop)
	predChromaDC(m.predC[1][:], recon.Cr, recon.COrigin, recon.CStride, cx, cy, px > 0, availTop)
}

// mcChromaPart motion-compensates one partition's chroma, both planes,
// into predC (stride 8). (ox, oy, w, h) are the luma partition's geometry
// relative to the macroblock origin. The vector is kept inside the padded
// reference, a no-op for every vector the encoder's search window allows.
//
//hdvlint:noalloc
func (m *mbRecon) mcChromaPart(ref *frame.Frame, px, py, ox, oy, w, h int, mv motion.MV) {
	cx := (px + ox) / 2
	cy := (py + oy) / 2
	ix := codec.ClampMVToWindow(int(mv.X)>>3, cx, ref.Width/2, w/2, codec.ChromaMargin)
	iy := codec.ClampMVToWindow(int(mv.Y)>>3, cy, ref.Height/2, h/2, codec.ChromaMargin)
	dx := int(mv.X) & 7
	dy := int(mv.Y) & 7
	so := ref.COrigin + (cy+iy)*ref.CStride + cx + ix
	do := (oy/2)*8 + ox/2
	interp.ChromaBilin(m.predC[0][do:], 8, ref.Cb[so:], ref.CStride, w/2, h/2, dx, dy, m.kern)
	interp.ChromaBilin(m.predC[1][do:], 8, ref.Cr[so:], ref.CStride, w/2, h/2, dx, dy, m.kern)
}

// mcChromaB forms a B macroblock's chroma prediction for mode: from the
// forward reference, the backward one, or the average of both.
//
//hdvlint:noalloc
func (m *mbRecon) mcChromaB(mode int, fwdRef, bwdRef *frame.Frame, px, py int, fwdMV, bwdMV motion.MV) {
	if mode == mBBwd {
		m.mcChromaPart(bwdRef, px, py, 0, 0, 16, 16, bwdMV)
		return
	}
	m.mcChromaPart(fwdRef, px, py, 0, 0, 16, 16, fwdMV)
	if mode == mBBi {
		cbF, crF := m.predC[0], m.predC[1]
		m.mcChromaPart(bwdRef, px, py, 0, 0, 16, 16, bwdMV)
		interp.Avg(m.predC[0][:], 8, cbF[:], 8, 8, 8, m.kern)
		interp.Avg(m.predC[1][:], 8, crF[:], 8, 8, 8, m.kern)
	}
}

// reconI16 adds an I16×16 macroblock's residual — the DC block through
// the inverse Hadamard, every block dequantized and inverse transformed —
// to the prediction in predY.
//
//hdvlint:noalloc
func (m *mbRecon) reconI16(recon *frame.Frame, px, py int, md *mbData) {
	dcRec := md.lumaDC
	dct.Hadamard4(&dcRec, false)
	quant.H264DequantDC(&dcRec, m.qp)
	for bi := 0; bi < 16; bi++ {
		bx, by := 4*(bi%4), 4*(bi/4)
		ro := recon.YOrigin + (py+by)*recon.YStride + px + bx
		po := by*16 + bx
		blk := md.luma[bi]
		quant.H264Dequant(&blk, m.qp)
		blk[0] = dcRec[bi]
		dct.Inverse4(&blk)
		codec.Add4Clip(recon.Y, ro, recon.YStride, m.predY[:], po, 16, &blk)
	}
}

// reconI4Block reconstructs block bi of an I4×4 macroblock from its 4×4
// prediction and quantized coefficients. Blocks are reconstructed in
// coding order: each later block predicts from the ones before it.
//
//hdvlint:noalloc
func (m *mbRecon) reconI4Block(recon *frame.Frame, px, py, bi int, pred *[16]byte, blk [16]int32) {
	ro := recon.YOrigin + (py+4*(bi/4))*recon.YStride + px + 4*(bi%4)
	quant.H264Dequant(&blk, m.qp)
	dct.Inverse4(&blk)
	codec.Add4Clip(recon.Y, ro, recon.YStride, pred[:], 0, 4, &blk)
}

// reconLumaInter adds an inter macroblock's luma residual to predY;
// blocks without coefficients take the prediction as it is.
//
//hdvlint:noalloc
func (m *mbRecon) reconLumaInter(recon *frame.Frame, px, py int, md *mbData) {
	for bi := 0; bi < 16; bi++ {
		bx, by := 4*(bi%4), 4*(bi/4)
		ro := recon.YOrigin + (py+by)*recon.YStride + px + bx
		po := by*16 + bx
		if md.lumaNZ[bi] {
			blk := md.luma[bi]
			quant.H264Dequant(&blk, m.qp)
			dct.Inverse4(&blk)
			codec.Add4Clip(recon.Y, ro, recon.YStride, m.predY[:], po, 16, &blk)
		} else {
			for r := 0; r < 4; r++ {
				copy(recon.Y[ro+r*recon.YStride:ro+r*recon.YStride+4],
					m.predY[po+r*16:po+r*16+4])
			}
		}
	}
}

// reconChroma adds both chroma planes' residual (DC through the inverse
// Hadamard, AC as cbpChroma says) to predC.
//
//hdvlint:noalloc
func (m *mbRecon) reconChroma(recon *frame.Frame, px, py int, md *mbData) {
	cx, cy := px/2, py/2
	qpc := quant.H264ChromaQP(m.qp)
	for pl := 0; pl < 2; pl++ {
		plane := recon.Cb
		if pl == 1 {
			plane = recon.Cr
		}
		dc := md.chromaDC[pl]
		if md.cbpChroma >= 1 {
			dct.Hadamard2(&dc)
			quant.H264DequantChromaDC(&dc, qpc)
		} else {
			dc = [4]int32{}
		}
		for ci := 0; ci < 4; ci++ {
			ox, oy := 4*(ci%2), 4*(ci/2)
			ro := recon.COrigin + (cy+oy)*recon.CStride + cx + ox
			po := oy*8 + ox
			blk := md.chroma[pl][ci]
			if md.cbpChroma == 2 {
				quant.H264Dequant(&blk, qpc)
			} else {
				blk = [16]int32{}
			}
			blk[0] = dc[ci]
			if md.cbpChroma >= 1 {
				dct.Inverse4(&blk)
				codec.Add4Clip(plane, ro, recon.CStride, m.predC[pl][:], po, 8, &blk)
			} else {
				for r := 0; r < 4; r++ {
					copy(plane[ro+r*recon.CStride:ro+r*recon.CStride+4],
						m.predC[pl][po+r*8:po+r*8+4])
				}
			}
		}
	}
}

// updateMetaNZ records per-4×4 non-zero flags for deblocking.
//
//hdvlint:noalloc
func (m *mbRecon) updateMetaNZ(px, py int, md *mbData, i16 bool) {
	bx4, by4 := px/4, py/4
	for bi := 0; bi < 16; bi++ {
		nz := md.lumaNZ[bi]
		if i16 && md.lumaDCNZ {
			nz = true
		}
		m.meta.nz[(by4+bi/4)*m.meta.w4+bx4+bi%4] = nz
	}
}

// reconIntraMB completes an intra macroblock whose luma prediction is in
// predY (I16×16) or whose luma is already reconstructed (I4×4, block by
// block), and whose chroma prediction is in predC: the I16×16 residual,
// chroma, and the meta grids (intra, no vector, non-zero flags).
//
//hdvlint:noalloc
func (m *mbRecon) reconIntraMB(recon *frame.Frame, px, py int, md *mbData) {
	if md.mode == mI16x16 {
		m.reconI16(recon, px, py, md)
	}
	m.reconChroma(recon, px, py, md)
	m.meta.setBlock(px/4, py/4, 4, 4, motion.MV{}, -1)
	m.updateMetaNZ(px, py, md, md.mode == mI16x16)
}

// reconInterMB completes an inter macroblock from the motion-compensated
// prediction in predY and predC. Its vectors are already in the meta
// grid: P partitions predict from the ones before them.
//
//hdvlint:noalloc
func (m *mbRecon) reconInterMB(recon *frame.Frame, px, py int, md *mbData) {
	m.reconLumaInter(recon, px, py, md)
	m.reconChroma(recon, px, py, md)
	m.updateMetaNZ(px, py, md, false)
}
