// Package mpeg2 implements the HD-VideoBench MPEG-2-class video codec:
// the role FFmpeg's MPEG-2 encoder and the libmpeg2 decoder play in the
// paper. Toolset: 16×16 macroblocks, 8×8 DCT with the MPEG-2 intra matrix,
// half-pel motion compensation, I/P/B pictures with the paper's I-P-B-B
// GOP, EPZS motion estimation, and a run-level Exp-Golomb VLC layer.
//
// The bitstream is the HDVB container format (see DESIGN.md §2), not ISO
// 13818-2; encoder and decoder form a complete bit-exact pair.
//
// The package holds only what is MPEG-2: the slice coders (macroblock
// modes, residual coding, motion search and compensation) that
// internal/codec's frame drivers call once per slice. GOP structure,
// rate control, references, slice dispatch and the payload layout live
// there, shared with the other two codecs. Reconstruction exists once, in
// recon.go: encoder and decoder both call it, so the encoder's
// reconstruction is the decoder's output by construction.
package mpeg2

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
