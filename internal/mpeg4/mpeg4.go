// Package mpeg4 implements the HD-VideoBench MPEG-4 ASP-class video codec:
// the role Xvid plays in the paper. On top of the MPEG-2 toolset it adds
// the Advanced Simple Profile tools that give MPEG-4 its compression edge
// and its extra decode cost:
//
//   - quarter-pel motion compensation (6-tap half-pel + bilinear quarter),
//   - 4MV mode (four independent 8×8 vectors per macroblock),
//   - H.263-style quantization with adaptive intra DC scaler,
//   - per-block intra DC prediction.
//
// The bitstream is the HDVB container format (see DESIGN.md §2); encoder
// and decoder form a complete bit-exact pair.
package mpeg4

import (
	"fmt"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
)

// Macroblock modes.
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

const (
	eob8  = 63
	eob64 = 64
)

// dcPredInit is the intra DC predictor reset value in level units
// (1024 / dc_scaler for mid-grey; with dc_scaler 8..46 the level varies, so
// the predictor is kept in the *reconstructed* domain instead: 1024).
const dcPredInit = 1024

type predBuf struct {
	y      [256]byte
	yAlt   [256]byte
	cb, cr [64]byte
	cbAlt  [64]byte
	crAlt  [64]byte
}

// splitQuarter splits a quarter-pel MV component into integer offset and
// quarter fraction (floor semantics).
func splitQuarter(v int) (ipel, frac int) {
	return v >> 2, v & 3
}

// splitHalf splits a half-pel component (chroma path).
func splitHalf(v int) (ipel, frac int) {
	return v >> 1, v & 1
}

// chromaFromLuma converts a quarter-pel luma MV component to the half-pel
// chroma component (truncating toward zero, Xvid-style).
func chromaFromLuma(v int) int { return v / 4 }

func lambdaFor(q int) int {
	if q < 1 {
		return 1
	}
	return q
}

func header(cfg codec.Config, frames int) container.Header {
	var flags uint16
	if cfg.SliceQ() {
		flags |= container.FlagSliceQ
	}
	return container.Header{
		Codec:  container.CodecMPEG4,
		Flags:  flags,
		Width:  cfg.Width,
		Height: cfg.Height,
		FPSNum: cfg.FPSNum,
		FPSDen: cfg.FPSDen,
		Frames: frames,
	}
}

func validateSize(hdr container.Header) error {
	if hdr.Width%16 != 0 || hdr.Height%16 != 0 || hdr.Width <= 0 || hdr.Height <= 0 {
		return fmt.Errorf("mpeg4: invalid dimensions %dx%d", hdr.Width, hdr.Height)
	}
	return nil
}

// lumaMargin and chromaMargin bound how far outside the picture a decoded
// block may start; only damaged streams reach them (see package mpeg2).
const (
	lumaMargin   = codec.RefPad - 8
	chromaMargin = codec.RefPad/2 - 2
)

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
