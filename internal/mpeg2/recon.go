package mpeg2

import (
	"hdvideobench/internal/codec"
	"hdvideobench/internal/dct"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/interp"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/motion"
	"hdvideobench/internal/quant"
)

// Reconstruction, written once: the encoder's row coder and the decoder's
// slice coder call these on the coefficients they quantized or parsed and
// the vectors they chose or read, so the encoder's reconstruction is the
// decoder's output by construction. Luma motion compensation is the one
// step each side does its own way — the encoder copies its winner from the
// reference's bilinear half-pel planes, the decoder interpolates the block
// — and the two are bit-exact (interp's tests).

// reconIntraBlock dequantizes and inverse transforms an intra block and
// stores it at rec[roff].
//
//hdvlint:noalloc
func reconIntraBlock(rec []byte, roff, rstride int, blk *[64]int32, q int32) {
	quant.Mpeg2DequantIntra(blk, q)
	dct.Inverse8(blk)
	codec.Store8Clip(rec, roff, rstride, blk)
}

// reconInterMB reconstructs an inter macroblock on the prediction p: each
// block cbp codes (bit 5−i for block i of Y0..Y3, Cb, Cr) is dequantized,
// inverse transformed and added; the others take the prediction as it is.
//
//hdvlint:noalloc
func reconInterMB(recon *frame.Frame, px, py int, p *codec.PredMB, blks *[6][64]int32, cbp int, q int32, k kernel.Set) {
	for i := 0; i < 4; i++ {
		ro := recon.YOrigin + (py+8*(i/2))*recon.YStride + px + 8*(i%2)
		po := 8*(i/2)*16 + 8*(i%2)
		if cbp&(1<<(5-i)) != 0 {
			quant.Mpeg2DequantInter(&blks[i], q)
			dct.Inverse8(&blks[i])
			codec.Add8Clip(recon.Y, ro, recon.YStride, p.Y[:], po, 16, &blks[i], k)
		} else {
			codec.Copy8(recon.Y, ro, recon.YStride, p.Y[:], po, 16)
		}
	}
	cro := recon.COrigin + py/2*recon.CStride + px/2
	if cbp&2 != 0 {
		quant.Mpeg2DequantInter(&blks[4], q)
		dct.Inverse8(&blks[4])
		codec.Add8Clip(recon.Cb, cro, recon.CStride, p.Cb[:], 0, 8, &blks[4], k)
	} else {
		codec.Copy8(recon.Cb, cro, recon.CStride, p.Cb[:], 0, 8)
	}
	if cbp&1 != 0 {
		quant.Mpeg2DequantInter(&blks[5], q)
		dct.Inverse8(&blks[5])
		codec.Add8Clip(recon.Cr, cro, recon.CStride, p.Cr[:], 0, 8, &blks[5], k)
	} else {
		codec.Copy8(recon.Cr, cro, recon.CStride, p.Cr[:], 0, 8)
	}
}

// mcChroma fills cb and cr with the 8×8 chroma prediction for a half-pel
// luma vector. The vector is kept inside the padded reference, a no-op
// for every vector the encoder's search window allows.
//
//hdvlint:noalloc
func mcChroma(ref *frame.Frame, px, py int, mv motion.MV, cb, cr []byte, k kernel.Set) {
	ix, fx := codec.SplitHalf(chromaMV(int(mv.X)))
	iy, fy := codec.SplitHalf(chromaMV(int(mv.Y)))
	cx, cy := px/2, py/2
	ix = codec.ClampMVToWindow(ix, cx, ref.Width/2, 8, codec.ChromaMargin)
	iy = codec.ClampMVToWindow(iy, cy, ref.Height/2, 8, codec.ChromaMargin)
	so := ref.COrigin + (cy+iy)*ref.CStride + cx + ix
	interp.HalfPel(cb, 8, ref.Cb[so:], ref.CStride, 8, 8, fx, fy, k)
	interp.HalfPel(cr, 8, ref.Cr[so:], ref.CStride, 8, 8, fx, fy, k)
}

// mcChromaB fills p's chroma for a B macroblock of mode: from the forward
// reference, the backward one, or the average of both.
//
//hdvlint:noalloc
func mcChromaB(p *codec.PredMB, mode int, fwdRef, bwdRef *frame.Frame, px, py int, fwdMV, bwdMV motion.MV, k kernel.Set) {
	switch mode {
	case bFwd:
		mcChroma(fwdRef, px, py, fwdMV, p.Cb[:], p.Cr[:], k)
	case bBwd:
		mcChroma(bwdRef, px, py, bwdMV, p.Cb[:], p.Cr[:], k)
	case bBi:
		mcChroma(fwdRef, px, py, fwdMV, p.Cb[:], p.Cr[:], k)
		mcChroma(bwdRef, px, py, bwdMV, p.CbAlt[:], p.CrAlt[:], k)
		interp.Avg(p.Cb[:], 8, p.CbAlt[:], 8, 8, 8, k)
		interp.Avg(p.Cr[:], 8, p.CrAlt[:], 8, 8, 8, k)
	}
}
