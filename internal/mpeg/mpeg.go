// Package mpeg implements the HD-VideoBench MPEG-class video codecs as two
// profiles of one slice coder: MPEG-2 (the role FFmpeg's MPEG-2 encoder
// and the libmpeg2 decoder play in the paper) and MPEG-4 Advanced Simple
// Profile (the role of Xvid). Both code 16×16 macroblocks with the 8×8
// DCT, I/P/B pictures in the paper's I-P-B-B GOP, EPZS motion estimation
// and a run-level Exp-Golomb VLC layer. The ASP profile adds the tools
// that give MPEG-4 its compression edge and its extra decode cost:
//
//   - quarter-pel luma motion compensation (6-tap half-pel + bilinear
//     quarter) where MPEG-2 has bilinear half-pel,
//   - 4MV mode in P pictures (four independent 8×8 vectors per macroblock),
//   - H.263-style quantization with an adaptive intra DC scaler where
//     MPEG-2 has its matrices.
//
// The codec ID picks the profile (container.CodecMPEG2 or CodecMPEG4);
// everything else is shared.
//
// The bitstream is the HDVB container format (see package container), not
// ISO 13818-2 or 14496-2; encoder and decoder form a complete bit-exact
// pair.
//
// The package holds only the slice coders (macroblock modes, residual
// coding, motion search and compensation) that internal/codec's frame
// drivers call once per slice. GOP structure, rate control, references,
// slice dispatch and the payload layout live there, shared with H.264.
// Reconstruction exists once, in recon.go: encoder and decoder both call
// it, so the encoder's reconstruction is the decoder's output by
// construction.
package mpeg

import (
	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/motion"
	"hdvideobench/internal/quant"
)

// Macroblock modes. P frames use pSkip/pInter/pIntra (and pInter4V in
// the ASP profile); B frames use the b* set.
const (
	pInter   = 0
	pIntra   = 1
	pSkip    = 2
	pInter4V = 3

	bSkip  = 0
	bFwd   = 1
	bBwd   = 2
	bBi    = 3
	bIntra = 4
)

// eob8 is the end-of-block marker for intra AC coding (runs are ≤ 62).
const eob8 = 63

// eob64 is the end-of-block marker for inter coding (runs are ≤ 63).
const eob64 = 64

// profile is what separates the two codecs. Each decision that differs
// tests asp directly — never through a function value — so the shared
// per-block paths keep their direct, inlined calls:
//
//   - luma sub-pel precision: half-pel with bilinear planes, or
//     quarter-pel with 6-tap planes; it sets the MV units (splitMV,
//     fullPel) and the chroma vector (chromaMV);
//   - the quantizer pair: quant.Mpeg2* or quant.Mpeg4*;
//   - the intra DC predictor reset (dcInit);
//   - 4MV, in P pictures.
type profile struct {
	asp bool // MPEG-4 Advanced Simple Profile tools
}

// profileFor returns the profile that codes id and its name, the frame
// driver's error prefix; ok is false if id is not one of this package's
// codecs.
func profileFor(id container.Codec) (p profile, name string, ok bool) {
	switch id {
	case container.CodecMPEG2:
		return profile{}, "mpeg2", true
	case container.CodecMPEG4:
		return profile{asp: true}, "mpeg4", true
	}
	return profile{}, "", false
}

// dcInit is the intra DC predictor reset for a slice coded at q:
// mid-grey (1024) in level units of the profile's intra DC step.
func (p profile) dcInit(q int32) int32 {
	if p.asp {
		return 1024 / quant.Mpeg4DCScaler(q)
	}
	return 1024 / quant.Mpeg2DCScale
}

// splitMV splits a luma vector into whole pels and the profile's sub-pel
// fractions.
func (p profile) splitMV(mv motion.MV) (ix, fx, iy, fy int) {
	if p.asp {
		ix, fx = codec.SplitQuarter(int(mv.X))
		iy, fy = codec.SplitQuarter(int(mv.Y))
		return
	}
	ix, fx = codec.SplitHalf(int(mv.X))
	iy, fy = codec.SplitHalf(int(mv.Y))
	return
}

// fullPel converts a luma vector to whole pels (flooring), the unit of
// the EPZS predictors and the motion tap.
func (p profile) fullPel(mv motion.MV) motion.MV {
	if p.asp {
		return motion.MV{X: mv.X >> 2, Y: mv.Y >> 2}
	}
	return motion.MV{X: mv.X >> 1, Y: mv.Y >> 1}
}

// chromaMV derives the half-pel chroma vector component from a luma one,
// truncating toward zero: v/2 from half-pel (MPEG-2), v/4 from
// quarter-pel (ASP, Xvid-style).
func chromaMV(v int, asp bool) int {
	if asp {
		return v / 4
	}
	return v / 2
}
