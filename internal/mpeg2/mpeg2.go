// Package mpeg2 implements the HD-VideoBench MPEG-2-class video codec:
// the role FFmpeg's MPEG-2 encoder and the libmpeg2 decoder play in the
// paper. Toolset: 16×16 macroblocks, 8×8 DCT with the MPEG-2 intra matrix,
// half-pel motion compensation, I/P/B pictures with the paper's I-P-B-B
// GOP, EPZS motion estimation, and a run-level Exp-Golomb VLC layer.
//
// The bitstream is the HDVB container format (see DESIGN.md §2), not ISO
// 13818-2; encoder and decoder form a complete bit-exact pair.
package mpeg2

import (
	"fmt"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
)

// Macroblock modes. P frames use pSkip/pInter/pIntra; B frames use the b*
// set.
const (
	pInter = 0
	pIntra = 1
	pSkip  = 2

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

// dcPredInit is the intra DC predictor reset value (mid-grey, level scale).
const dcPredInit = 128

// predBuf holds one macroblock of prediction samples.
type predBuf struct {
	y      [256]byte // 16×16 luma
	yAlt   [256]byte // second hypothesis for bi-prediction / refinement
	cb, cr [64]byte  // 8×8 chroma
	cbAlt  [64]byte
	crAlt  [64]byte
}

// splitHalf splits a half-pel MV component into integer offset and
// half-pel fraction (floor semantics, valid for negative values).
func splitHalf(v int) (ipel, frac int) {
	return v >> 1, v & 1
}

// chromaMV derives the chroma half-pel MV from the luma half-pel MV
// (division by two truncating toward zero, per MPEG-2).
func chromaMV(v int) int { return v / 2 }

// lambdaFor maps the quantizer scale to the λ used in motion cost
// (SAD units per estimated bit).
func lambdaFor(q int) int {
	l := q
	if l < 1 {
		l = 1
	}
	return l
}

// header builds the container header for a config.
func header(cfg codec.Config, frames int) container.Header {
	var flags uint16
	if cfg.SliceQ() {
		flags |= container.FlagSliceQ
	}
	return container.Header{
		Codec:  container.CodecMPEG2,
		Flags:  flags,
		Width:  cfg.Width,
		Height: cfg.Height,
		FPSNum: cfg.FPSNum,
		FPSDen: cfg.FPSDen,
		Frames: frames,
	}
}

// validateSize checks a decoded packet's geometry against the header.
func validateSize(hdr container.Header) error {
	if hdr.Width%16 != 0 || hdr.Height%16 != 0 || hdr.Width <= 0 || hdr.Height <= 0 {
		return fmt.Errorf("mpeg2: invalid dimensions %dx%d", hdr.Width, hdr.Height)
	}
	return nil
}

// lumaMargin and chromaMargin are how far outside the picture a decoded
// block may start: inside the RefPad (RefPad/2 for chroma) border with
// room left for the interpolation taps, and at least as far as any vector
// the encoder's search window allows, so only damaged streams are clamped.
const (
	lumaMargin   = codec.RefPad - 8
	chromaMargin = codec.RefPad/2 - 2
)

// clampMVToWindow keeps a decoded integer-pel offset inside the padded
// reference area, guarding against corrupt streams.
func clampMVToWindow(ival, pos, size, blk, margin int) int {
	lo := -pos - margin
	hi := size - pos - blk + margin
	if ival < lo {
		ival = lo
	}
	if ival > hi {
		ival = hi
	}
	return ival
}
