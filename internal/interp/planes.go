package interp

// Per-reference half-pel planes (x264 hpel style).
//
// Instead of re-running the half-pel filters into a scratch block for
// every candidate of every macroblock, the encoders interpolate each
// reference frame ONCE into three full planes — H (half sample right),
// V (half sample down) and HV (centre) — right after its reconstruction
// is finished. Motion search then scores sub-pel candidates directly
// against plane memory (half-pel positions) or against the rounded
// average of two plane rows (quarter-pel positions, LumaPlanes); both
// produce exactly the filterH/filterV/filterHV sample values, so the
// chosen vectors, predictions and therefore bitstreams are byte-identical
// to the per-block interpolation path (pinned by TestHalfPlanes* and the
// root equivalence matrix).
//
// Only the plane region reachable by a clamped MV must be valid. The
// builders fill rows [2, rows-4] × cols [2, stride-4] of the padded
// plane; motion.Estimator.Window keeps every access at least 8 pixels
// inside the padding (margin = pad-8), so with RefPad = 32 all legal
// reads — including the +1 column/row of averaging and the refinement's
// ±1 integer step — land inside the built interior. Encoders rebuild a
// recycled reference's planes into their old memory (frame.Frame.Spare),
// so outside that interior the planes hold stale samples, not zeros; the
// codec tests fill recycled memory with a poison pattern and check that
// no bitstream moves.

import (
	"hdvideobench/internal/frame"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/swar"
)

// BuildHalfPelBilin fills f.HpelBilin with the bilinear half-sample
// planes used by MPEG-2-style motion compensation: H[p] = avg(p, p+1),
// V[p] = avg(p, p+stride), HV[p] = avg4 of the quad — exactly the values
// HalfPel produces per block. No-op if the planes are already built.
func BuildHalfPelBilin(f *frame.Frame, k kernel.Set) {
	if f.HpelBilin != nil {
		return
	}
	stride := f.YStride
	rows := len(f.Y) / stride
	hp := planesFor(f)
	n := stride - 1 // H and HV read column +1
	for r := 0; r+1 < rows; r++ {
		row := r * stride
		if k == kernel.SWAR {
			swar.AvgRowRound(hp.H[row:], f.Y[row:], f.Y[row+1:], n)
			swar.AvgRowRound(hp.V[row:], f.Y[row:], f.Y[row+stride:], stride)
			swar.Avg4RowRound2(hp.HV[row:], f.Y[row:], f.Y[row+1:],
				f.Y[row+stride:], f.Y[row+stride+1:], n)
			continue
		}
		s0 := f.Y[row:]
		s1 := f.Y[row+stride:]
		hRow := hp.H[row:]
		vRow := hp.V[row:]
		hvRow := hp.HV[row:]
		for c := 0; c < n; c++ {
			hRow[c] = byte((int(s0[c]) + int(s0[c+1]) + 1) >> 1)
			vRow[c] = byte((int(s0[c]) + int(s1[c]) + 1) >> 1)
			hvRow[c] = byte((int(s0[c]) + int(s0[c+1]) + int(s1[c]) + int(s1[c+1]) + 2) >> 2)
		}
		vRow[n] = byte((int(s0[n]) + int(s1[n]) + 1) >> 1)
	}
	f.HpelBilin = hp
}

// planesFor returns the memory a build over f fills: f.Spare when f was
// recycled, else fresh planes. Spare samples outside the region a
// builder fills stay stale, which is safe because nothing reads there.
func planesFor(f *frame.Frame) *frame.HalfPlanes {
	if hp := f.Spare; hp != nil {
		f.Spare = nil
		return hp
	}
	return &frame.HalfPlanes{
		H:  make([]byte, len(f.Y)),
		V:  make([]byte, len(f.Y)),
		HV: make([]byte, len(f.Y)),
	}
}

// BilinPlaneFor returns the plane holding bilinear half-pel position
// (fx, fy) of a reference frame: the luma plane itself for (0,0). The
// prediction block for a half-pel MV with integer part (ix, iy) is the
// block at (ix, iy) of this plane.
func BilinPlaneFor(f *frame.Frame, fx, fy int) []byte {
	switch {
	case fx == 0 && fy == 0:
		return f.Y
	case fy == 0:
		return f.HpelBilin.H
	case fx == 0:
		return f.HpelBilin.V
	default:
		return f.HpelBilin.HV
	}
}

// BuildHalfPel6 fills f.Hpel6 with the 6-tap (1,-5,20,20,-5,1) half-pel
// planes of the H.264/MPEG-4 quarter-pel scheme: H is the b position,
// V the h position and HV the centre j position, sample-identical to
// filterH/filterV/filterHV. No-op if already built.
func BuildHalfPel6(f *frame.Frame, k kernel.Set) {
	if f.Hpel6 != nil {
		return
	}
	stride := f.YStride
	rows := len(f.Y) / stride
	hp := planesFor(f)
	w := stride - 5 // cols [2, stride-4]
	hRows := rows - 5
	filterH(hp.H[2*stride+2:], stride, f.Y, 2*stride+2, stride, w, hRows, k)
	filterV(hp.V[2*stride+2:], stride, f.Y, 2*stride+2, stride, w, hRows, k)

	// HV (the j position): vertical 6-tap over unrounded horizontal
	// intermediates, via a rolling six-row int32 window.
	if cap(hp.Rows) < 6*w {
		hp.Rows = make([]int32, 6*w)
	}
	ring := hp.Rows[:6*w]
	hrow := func(r int, dst []int32) {
		base := r*stride + 2
		for c := 0; c < w; c++ {
			p := base + c
			dst[c] = sixTap(int32(f.Y[p-2]), int32(f.Y[p-1]), int32(f.Y[p]),
				int32(f.Y[p+1]), int32(f.Y[p+2]), int32(f.Y[p+3]))
		}
	}
	for r := 0; r < 5; r++ {
		hrow(r, ring[r*w:(r+1)*w])
	}
	for r := 2; r <= rows-4; r++ {
		hrow(r+3, ring[((r+3)%6)*w:((r+3)%6)*w+w])
		out := hp.HV[r*stride+2 : r*stride+2+w]
		t0 := ring[((r-2)%6)*w:]
		t1 := ring[((r-1)%6)*w:]
		t2 := ring[(r%6)*w:]
		t3 := ring[((r+1)%6)*w:]
		t4 := ring[((r+2)%6)*w:]
		t5 := ring[((r+3)%6)*w:]
		for c := 0; c < w; c++ {
			v := sixTap(t0[c], t1[c], t2[c], t3[c], t4[c], t5[c])
			out[c] = clip255((v + 512) >> 10)
		}
	}
	f.Hpel6 = hp
}

// QPelSources resolves quarter-pel position (fx, fy) ∈ [0,3]² into the
// one or two plane/offset sources whose rounded average forms the H.264
// luma prediction. b == nil means the prediction is a plain copy of a.
// so addresses the integer-pel top-left sample; the mapping mirrors the
// position cases of QPel.Luma exactly.
func QPelSources(y []byte, hp *frame.HalfPlanes, so, sStride, fx, fy int) (a []byte, ao int, b []byte, bo int) {
	switch fy*4 + fx {
	case 0: // G
		return y, so, nil, 0
	case 1: // a = avg(G, b)
		return y, so, hp.H, so
	case 2: // b
		return hp.H, so, nil, 0
	case 3: // c = avg(b, H)
		return hp.H, so, y, so + 1
	case 4: // d = avg(G, h)
		return y, so, hp.V, so
	case 5: // e = avg(b, h)
		return hp.H, so, hp.V, so
	case 6: // f = avg(b, j)
		return hp.H, so, hp.HV, so
	case 7: // g = avg(b, m)
		return hp.H, so, hp.V, so + 1
	case 8: // h
		return hp.V, so, nil, 0
	case 9: // i = avg(h, j)
		return hp.V, so, hp.HV, so
	case 10: // j
		return hp.HV, so, nil, 0
	case 11: // k = avg(j, m)
		return hp.HV, so, hp.V, so + 1
	case 12: // n = avg(h, M)
		return hp.V, so, y, so + sStride
	case 13: // p = avg(h, s)
		return hp.V, so, hp.H, so + sStride
	case 14: // q = avg(j, s)
		return hp.HV, so, hp.H, so + sStride
	default: // 15: r = avg(m, s)
		return hp.V, so + 1, hp.H, so + sStride
	}
}

// LumaPlanes is QPel.Luma computed from the precomputed 6-tap half-pel
// planes — bit-exact with it, but every quarter position reduces to a
// copy or a rounded average of two plane blocks: no per-candidate
// filtering at all.
func LumaPlanes(dst []byte, dStride int, y []byte, hp *frame.HalfPlanes, so, sStride, w, h, fx, fy int, k kernel.Set) {
	a, ao, b, bo := QPelSources(y, hp, so, sStride, fx, fy)
	if b == nil {
		Copy(dst, dStride, a[ao:], sStride, w, h)
		return
	}
	Avg2(dst, dStride, a[ao:], sStride, b[bo:], sStride, w, h, k)
}
