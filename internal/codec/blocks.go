package codec

// Pixel-block helpers shared by the macroblock loops of all three codecs.
// Offsets follow the plane+offset convention of the frame package: sample
// (r,c) of a block based at off is plane[off + r*stride + c].
//
// The residual helpers (cur − pred) dispatch on the kernel set: the SWAR
// row swar.DiffRow is bit-exact with the scalar loop, so the selection
// follows the session-wide scalar-vs-SIMD axis without touching output.
// Reconstruction (clamp(pred + residual)) does not dispatch: both kernel
// sets run swar.AddClampRow, a plain loop that beat the packed-lane one.

import (
	"hdvideobench/internal/frame"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/swar"
)

// SplitHalf splits a half-pel MV component into integer offset and
// half-pel fraction (floor semantics, valid for negative values).
func SplitHalf(v int) (ipel, frac int) { return v >> 1, v & 1 }

// SplitQuarter is SplitHalf for a quarter-pel component.
func SplitQuarter(v int) (ipel, frac int) { return v >> 2, v & 3 }

// LumaMargin and ChromaMargin are how far outside the picture a decoded
// block may start: inside the RefPad (RefPad/2 for chroma) border with
// room left for the interpolation taps, and at least as far as any vector
// the encoders' search window allows, so only damaged streams are clamped.
const (
	LumaMargin   = RefPad - 8
	ChromaMargin = RefPad/2 - 2
)

// ClampMVToWindow keeps a decoded integer-pel offset inside the padded
// reference area, guarding against corrupt streams.
func ClampMVToWindow(ival, pos, size, blk, margin int) int {
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

// IntraCostMB estimates the intra coding cost of a macroblock as the mean
// absolute deviation from the block mean (plus a fixed mode bias).
//
//hdvlint:noalloc
func IntraCostMB(src *frame.Frame, px, py int) int {
	off := src.YOrigin + py*src.YStride + px
	sum := 0
	for r := 0; r < 16; r++ {
		sum += swar.SumRow(src.Y[off+r*src.YStride:], 16)
	}
	mean := byte(sum / 256)
	cost := 0
	for r := 0; r < 16; r++ {
		row := src.Y[off+r*src.YStride:]
		for c := 0; c < 16; c++ {
			d := int(row[c]) - int(mean)
			if d < 0 {
				d = -d
			}
			cost += d
		}
	}
	return cost + 512 // intra mode bias
}

// LoadBlock8 copies an 8×8 pixel block into an int32 coefficient block.
func LoadBlock8(dst *[64]int32, plane []byte, off, stride int) {
	for r := 0; r < 8; r++ {
		base := off + r*stride
		for c := 0; c < 8; c++ {
			dst[r*8+c] = int32(plane[base+c])
		}
	}
}

// Residual8 computes cur − pred into an 8×8 coefficient block.
func Residual8(dst *[64]int32, cur []byte, co, cStride int, pred []byte, po, pStride int, k kernel.Set) {
	if k == kernel.SWAR {
		for r := 0; r < 8; r++ {
			swar.DiffRow(dst[r*8:r*8+8], cur[co+r*cStride:], pred[po+r*pStride:], 8)
		}
		return
	}
	for r := 0; r < 8; r++ {
		cb := co + r*cStride
		pb := po + r*pStride
		for c := 0; c < 8; c++ {
			dst[r*8+c] = int32(cur[cb+c]) - int32(pred[pb+c])
		}
	}
}

// Store8Clip writes an 8×8 coefficient block into a plane with clamping to
// [0, 255] (intra reconstruction).
func Store8Clip(plane []byte, off, stride int, blk *[64]int32) {
	for r := 0; r < 8; r++ {
		base := off + r*stride
		for c := 0; c < 8; c++ {
			plane[base+c] = clip255(blk[r*8+c])
		}
	}
}

// Add8Clip writes pred + residual into a plane with clamping (inter
// reconstruction). Both kernel sets run the same row loop; k is accepted
// so that callers pass their kernel set like every other block helper.
func Add8Clip(plane []byte, off, stride int, pred []byte, po, pStride int, res *[64]int32, k kernel.Set) {
	for r := 0; r < 8; r++ {
		swar.AddClampRow(plane[off+r*stride:], pred[po+r*pStride:], res[r*8:r*8+8], 8)
	}
}

// Copy8 copies an 8×8 block between planes.
func Copy8(dst []byte, do, dStride int, src []byte, so, sStride int) {
	for r := 0; r < 8; r++ {
		copy(dst[do+r*dStride:do+r*dStride+8], src[so+r*sStride:so+r*sStride+8])
	}
}

// Residual4 computes cur − pred into a 4×4 coefficient block.
func Residual4(dst *[16]int32, cur []byte, co, cStride int, pred []byte, po, pStride int, k kernel.Set) {
	if k == kernel.SWAR {
		for r := 0; r < 4; r++ {
			swar.DiffRow(dst[r*4:r*4+4], cur[co+r*cStride:], pred[po+r*pStride:], 4)
		}
		return
	}
	for r := 0; r < 4; r++ {
		cb := co + r*cStride
		pb := po + r*pStride
		for c := 0; c < 4; c++ {
			dst[r*4+c] = int32(cur[cb+c]) - int32(pred[pb+c])
		}
	}
}

// Add4Clip writes pred + residual into a plane with clamping.
func Add4Clip(plane []byte, off, stride int, pred []byte, po, pStride int, res *[16]int32) {
	for r := 0; r < 4; r++ {
		swar.AddClampRow(plane[off+r*stride:], pred[po+r*pStride:], res[r*4:r*4+4], 4)
	}
}

// PredMB is one macroblock of prediction samples of the 8×8-block codecs
// (MPEG-2, MPEG-4): what their motion compensation writes and their
// reconstruction adds the residual to.
type PredMB struct {
	Y, YAlt      [256]byte // 16×16 luma; YAlt holds a bi-predicted MB's second hypothesis
	Cb, Cr       [64]byte  // 8×8 chroma
	CbAlt, CrAlt [64]byte
}

// CopyTo writes the prediction unchanged into the macroblock at (px, py)
// of recon: the reconstruction of a macroblock without residual.
//
//hdvlint:noalloc
func (p *PredMB) CopyTo(recon *frame.Frame, px, py int) {
	for r := 0; r < 16; r++ {
		ro := recon.YOrigin + (py+r)*recon.YStride + px
		copy(recon.Y[ro:ro+16], p.Y[r*16:r*16+16])
	}
	cx, cy := px/2, py/2
	for r := 0; r < 8; r++ {
		ro := recon.COrigin + (cy+r)*recon.CStride + cx
		copy(recon.Cb[ro:ro+8], p.Cb[r*8:r*8+8])
		copy(recon.Cr[ro:ro+8], p.Cr[r*8:r*8+8])
	}
}

// SADBlockBytes is a small scalar SAD for mode decisions on prediction
// buffers (the motion package owns the search-loop SAD kernels).
func SADBlockBytes(a []byte, ao, aStride int, b []byte, bo, bStride, w, h int) int {
	sad := 0
	for r := 0; r < h; r++ {
		ab := ao + r*aStride
		bb := bo + r*bStride
		for c := 0; c < w; c++ {
			d := int(a[ab+c]) - int(b[bb+c])
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

func clip255(v int32) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}
