// Package interp implements sub-pixel motion-compensation interpolation:
//
//   - half-pel bilinear (MPEG-2 and MPEG-4 chroma paths),
//   - quarter-pel with a 6-tap (1,-5,20,20,-5,1) half-pel filter and
//     bilinear quarter positions (H.264 luma; also the quarter-pel tool
//     of package mpeg's MPEG-4 ASP profile),
//   - 1/8-pel weighted bilinear (H.264 chroma).
//
// Every routine has a scalar and a SWAR implementation selected by
// kernel.Set; the two are bit-exact (verified by exhaustive tests), so
// kernel choice affects speed only.
//
// The per-block routines have plane-at-a-time twins (see planes.go): the
// encoders interpolate each reference frame once into H/V/HV half-sample
// planes and derive every sub-pel candidate from plane memory — a copy
// for half-pel positions, a rounded two-plane average for quarter-pel
// positions. Each plane sample is computed by the same filter expression
// as its per-block counterpart, so the two paths are bit-exact and the
// choice between them is invisible in the bitstream; the decoders keep
// the cheap per-block path (one interpolation per macroblock partition,
// not hundreds of candidates).
package interp

import (
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/swar"
)

func clip255(v int32) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// Copy copies a w×h block.
//
//hdvlint:noalloc
func Copy(dst []byte, dStride int, src []byte, sStride, w, h int) {
	for r := 0; r < h; r++ {
		copy(dst[r*dStride:r*dStride+w], src[r*sStride:r*sStride+w])
	}
}

// Avg overwrites dst with the rounded average of dst and src (used for
// bi-directional prediction in B frames).
//
//hdvlint:noalloc
func Avg(dst []byte, dStride int, src []byte, sStride, w, h int, k kernel.Set) {
	if k == kernel.SWAR {
		for r := 0; r < h; r++ {
			swar.AvgRowRound(dst[r*dStride:], dst[r*dStride:], src[r*sStride:], w)
		}
		return
	}
	for r := 0; r < h; r++ {
		d := dst[r*dStride : r*dStride+w]
		s := src[r*sStride : r*sStride+w]
		for i := 0; i < w; i++ {
			d[i] = byte((int(d[i]) + int(s[i]) + 1) >> 1)
		}
	}
}

// HalfPel performs MPEG-2-style bilinear motion compensation. fx and fy are
// the half-pel fraction bits (0 or 1); src addresses the integer-pel
// top-left sample of the reference block.
//
//hdvlint:noalloc
func HalfPel(dst []byte, dStride int, src []byte, sStride, w, h, fx, fy int, k kernel.Set) {
	switch {
	case fx == 0 && fy == 0:
		Copy(dst, dStride, src, sStride, w, h)
	case fx == 1 && fy == 0:
		if k == kernel.SWAR {
			for r := 0; r < h; r++ {
				swar.AvgRowRound(dst[r*dStride:], src[r*sStride:], src[r*sStride+1:], w)
			}
			return
		}
		for r := 0; r < h; r++ {
			d := dst[r*dStride : r*dStride+w]
			s := src[r*sStride:]
			for i := 0; i < w; i++ {
				d[i] = byte((int(s[i]) + int(s[i+1]) + 1) >> 1)
			}
		}
	case fx == 0 && fy == 1:
		if k == kernel.SWAR {
			for r := 0; r < h; r++ {
				swar.AvgRowRound(dst[r*dStride:], src[r*sStride:], src[(r+1)*sStride:], w)
			}
			return
		}
		for r := 0; r < h; r++ {
			d := dst[r*dStride : r*dStride+w]
			s0 := src[r*sStride:]
			s1 := src[(r+1)*sStride:]
			for i := 0; i < w; i++ {
				d[i] = byte((int(s0[i]) + int(s1[i]) + 1) >> 1)
			}
		}
	default: // (1,1)
		if k == kernel.SWAR {
			for r := 0; r < h; r++ {
				swar.Avg4RowRound2(dst[r*dStride:],
					src[r*sStride:], src[r*sStride+1:],
					src[(r+1)*sStride:], src[(r+1)*sStride+1:], w)
			}
			return
		}
		for r := 0; r < h; r++ {
			d := dst[r*dStride : r*dStride+w]
			s0 := src[r*sStride:]
			s1 := src[(r+1)*sStride:]
			for i := 0; i < w; i++ {
				d[i] = byte((int(s0[i]) + int(s0[i+1]) + int(s1[i]) + int(s1[i+1]) + 2) >> 2)
			}
		}
	}
}

// ChromaBilin performs H.264-style weighted bilinear chroma interpolation
// with eighth-pel fractions dx, dy ∈ [0, 8).
//
//hdvlint:noalloc
func ChromaBilin(dst []byte, dStride int, src []byte, sStride, w, h, dx, dy int, k kernel.Set) {
	if dx == 0 && dy == 0 {
		Copy(dst, dStride, src, sStride, w, h)
		return
	}
	a := int32((8 - dx) * (8 - dy))
	b := int32(dx * (8 - dy))
	c := int32((8 - dx) * dy)
	d := int32(dx * dy)
	// The weighted sum does not decompose into byte averages, so scalar and
	// SWAR share this loop (the multiply-bound inner body is already tight).
	_ = k
	for r := 0; r < h; r++ {
		s0 := src[r*sStride:]
		s1 := src[(r+1)*sStride:]
		out := dst[r*dStride : r*dStride+w]
		for i := 0; i < w; i++ {
			v := a*int32(s0[i]) + b*int32(s0[i+1]) + c*int32(s1[i]) + d*int32(s1[i+1])
			out[i] = byte((v + 32) >> 6)
		}
	}
}
