package mpeg

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
// decoder's output by construction. asp selects the profile's quantizer
// pair and chroma vector scaling. Luma motion compensation is the one
// step each side does its own way — the encoder copies its winner from
// the reference's precomputed half-pel planes, the decoder interpolates
// the block — and the two are bit-exact (interp's tests).

// reconIntraBlock dequantizes and inverse transforms an intra block and
// stores it at rec[roff].
//
//hdvlint:noalloc
func reconIntraBlock(rec []byte, roff, rstride int, blk *[64]int32, q int32, asp bool) {
	if asp {
		quant.Mpeg4DequantIntra(blk, q)
	} else {
		quant.Mpeg2DequantIntra(blk, q)
	}
	dct.Inverse8(blk)
	codec.Store8Clip(rec, roff, rstride, blk)
}

// dequantInter reconstructs the levels of one inter block in place.
//
//hdvlint:noalloc
func dequantInter(blk *[64]int32, q int32, asp bool) {
	if asp {
		quant.Mpeg4DequantInter(blk, q)
		return
	}
	quant.Mpeg2DequantInter(blk, q)
}

// reconInterMB reconstructs an inter macroblock on the prediction p: each
// block cbp codes (bit 5−i for block i of Y0..Y3, Cb, Cr) is dequantized,
// inverse transformed and added; the others take the prediction as it is.
//
//hdvlint:noalloc
func reconInterMB(recon *frame.Frame, px, py int, p *codec.PredMB, blks *[6][64]int32, cbp int, q int32, asp bool, k kernel.Set) {
	for i := 0; i < 4; i++ {
		ro := recon.YOrigin + (py+8*(i/2))*recon.YStride + px + 8*(i%2)
		po := 8*(i/2)*16 + 8*(i%2)
		if cbp&(1<<(5-i)) != 0 {
			dequantInter(&blks[i], q, asp)
			dct.Inverse8(&blks[i])
			codec.Add8Clip(recon.Y, ro, recon.YStride, p.Y[:], po, 16, &blks[i], k)
		} else {
			codec.Copy8(recon.Y, ro, recon.YStride, p.Y[:], po, 16)
		}
	}
	cro := recon.COrigin + py/2*recon.CStride + px/2
	if cbp&2 != 0 {
		dequantInter(&blks[4], q, asp)
		dct.Inverse8(&blks[4])
		codec.Add8Clip(recon.Cb, cro, recon.CStride, p.Cb[:], 0, 8, &blks[4], k)
	} else {
		codec.Copy8(recon.Cb, cro, recon.CStride, p.Cb[:], 0, 8)
	}
	if cbp&1 != 0 {
		dequantInter(&blks[5], q, asp)
		dct.Inverse8(&blks[5])
		codec.Add8Clip(recon.Cr, cro, recon.CStride, p.Cr[:], 0, 8, &blks[5], k)
	} else {
		codec.Copy8(recon.Cr, cro, recon.CStride, p.Cr[:], 0, 8)
	}
}

// mcChroma fills cb and cr with the 8×8 chroma prediction for a luma
// vector. The vector is kept inside the padded reference, a no-op for
// every vector the encoder's search window allows.
//
//hdvlint:noalloc
func mcChroma(ref *frame.Frame, px, py int, mv motion.MV, cb, cr []byte, asp bool, k kernel.Set) {
	ix, fx := codec.SplitHalf(chromaMV(int(mv.X), asp))
	iy, fy := codec.SplitHalf(chromaMV(int(mv.Y), asp))
	cx, cy := px/2, py/2
	ix = codec.ClampMVToWindow(ix, cx, ref.Width/2, 8, codec.ChromaMargin)
	iy = codec.ClampMVToWindow(iy, cy, ref.Height/2, 8, codec.ChromaMargin)
	so := ref.COrigin + (cy+iy)*ref.CStride + cx + ix
	interp.HalfPel(cb, 8, ref.Cb[so:], ref.CStride, 8, 8, fx, fy, k)
	interp.HalfPel(cr, 8, ref.Cr[so:], ref.CStride, 8, 8, fx, fy, k)
}

// mcChroma4MV is mcChroma for a 4MV macroblock (ASP only): one vector,
// the average of its four.
//
//hdvlint:noalloc
func mcChroma4MV(ref *frame.Frame, px, py int, mvs *[4]motion.MV, cb, cr []byte, k kernel.Set) {
	sx, sy := 0, 0
	for _, v := range mvs {
		sx += int(v.X)
		sy += int(v.Y)
	}
	mcChroma(ref, px, py, motion.MV{X: int16(sx / 4), Y: int16(sy / 4)}, cb, cr, true, k)
}

// mcChromaB fills p's chroma for a B macroblock of mode: from the forward
// reference, the backward one, or the average of both.
//
//hdvlint:noalloc
func mcChromaB(p *codec.PredMB, mode int, fwdRef, bwdRef *frame.Frame, px, py int, fwdMV, bwdMV motion.MV, asp bool, k kernel.Set) {
	switch mode {
	case bFwd:
		mcChroma(fwdRef, px, py, fwdMV, p.Cb[:], p.Cr[:], asp, k)
	case bBwd:
		mcChroma(bwdRef, px, py, bwdMV, p.Cb[:], p.Cr[:], asp, k)
	case bBi:
		mcChroma(fwdRef, px, py, fwdMV, p.Cb[:], p.Cr[:], asp, k)
		mcChroma(bwdRef, px, py, bwdMV, p.CbAlt[:], p.CrAlt[:], asp, k)
		interp.Avg(p.Cb[:], 8, p.CbAlt[:], 8, 8, 8, k)
		interp.Avg(p.Cr[:], 8, p.CrAlt[:], 8, 8, 8, k)
	}
}
