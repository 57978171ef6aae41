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
// and decoder form a complete bit-exact pair. As in package mpeg2, only
// the slice coders live here; internal/codec's frame drivers call them.
// Reconstruction exists once, in recon.go: encoder and decoder both call
// it, so the encoder's reconstruction is the decoder's output by
// construction.
package mpeg4

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

// chromaFromLuma converts a quarter-pel luma MV component to the half-pel
// chroma component (truncating toward zero, Xvid-style).
func chromaFromLuma(v int) int { return v / 4 }

func lambdaFor(q int) int {
	if q < 1 {
		return 1
	}
	return q
}
