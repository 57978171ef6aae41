// Package swar implements SIMD-within-a-register kernels on uint64 values.
//
// The paper's "SIMD" codec versions use x86 SSE/MMX intrinsics; this package
// is the portable Go substitute. Each kernel processes 8 packed bytes (or 4
// packed 16-bit lanes) per operation and is bit-exact with the scalar
// reference implementations it replaces, so scalar and SWAR codec builds
// produce identical bitstreams and reconstructions — only the speed
// differs, which is the axis Figure 1 measures.
//
// Lane packing pays where it replaces work per byte, as in the SAD and
// difference rows. AddClampRow is the exception: its input is already one
// int32 per sample, and a plain loop with one unsigned range test beat the
// packed version by 3–4×, so both kernel sets reconstruct through it.
package swar

import "encoding/binary"

const (
	lo8    = 0x00FF00FF00FF00FF // even-byte mask / 16-bit lane low bytes
	bias16 = 0x0100010001000100 // +256 per 16-bit lane
	lsb16  = 0x0001000100010001
	low7   = 0x7F7F7F7F7F7F7F7F
)

// Load64 loads 8 bytes little-endian from b.
func Load64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// Store64 stores v little-endian into b.
func Store64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// AbsDiffSum8 returns sum(|a_i - b_i|) over the 8 packed bytes of a and b.
func AbsDiffSum8(a, b uint64) int {
	s := absDiff16(a&lo8, b&lo8) + absDiff16((a>>8)&lo8, (b>>8)&lo8)
	return fold16(s)
}

// fold16 sums the four 16-bit lanes of s (total must fit in 16 bits... the
// callers guarantee each lane ≤ 16383 so the staged fold below is exact).
func fold16(s uint64) int {
	s = (s & 0x0000FFFF0000FFFF) + ((s >> 16) & 0x0000FFFF0000FFFF)
	return int((s & 0xFFFFFFFF) + (s >> 32))
}

// absDiff16 computes per-16-bit-lane |x-y| where every lane of x and y holds
// an 8-bit value. Result lanes are in [0, 255].
func absDiff16(x, y uint64) uint64 {
	d := x + bias16 - y    // per lane: 256 + x - y ∈ [1, 511]
	ge := (d >> 8) & lsb16 // 1 iff x >= y
	lt := lsb16 - ge       // 1 iff x < y
	// ge lane: d & 0xFF == x-y.  lt lane: ((d&0xFF) ^ 0xFF) + 1 == 256-d == y-x.
	return ((d & lo8) ^ (lt * 0xFF)) + lt
}

// SADRow returns the sum of absolute differences between a[:n] and b[:n].
// n need not be a multiple of 8.
//
//hdvlint:noalloc
func SADRow(a, b []byte, n int) int {
	sad := 0
	i := 0
	for i+8 <= n {
		// Accumulate packed lanes, folding at most every 24 chunks so the
		// 16-bit lanes (≤ 510 gain per chunk) cannot overflow.
		var acc uint64
		lim := i + 24*8
		for ; i+8 <= n && i < lim; i += 8 {
			av, bv := Load64(a[i:]), Load64(b[i:])
			acc += absDiff16(av&lo8, bv&lo8) + absDiff16((av>>8)&lo8, (bv>>8)&lo8)
		}
		sad += fold16(acc)
	}
	for ; i < n; i++ {
		d := int(a[i]) - int(b[i])
		if d < 0 {
			d = -d
		}
		sad += d
	}
	return sad
}

// SADBlock returns the SAD between a w×h block at a (stride aStride) and the
// corresponding block at b (stride bStride).
//
//hdvlint:noalloc
func SADBlock(a []byte, aStride int, b []byte, bStride, w, h int) int {
	if w == 16 {
		return SAD16(a, aStride, b, bStride, h)
	}
	if w == 8 {
		return SAD8x(a, aStride, b, bStride, h)
	}
	sad := 0
	for r := 0; r < h; r++ {
		sad += SADRow(a[r*aStride:], b[r*bStride:], w)
	}
	return sad
}

// sadGroupRows is the early-termination check granularity of SADBlockMax:
// the partial sum is compared against the bail threshold after every group
// of this many rows. Coarse enough that a winning candidate (which never
// bails) pays almost nothing, fine enough that a clearly losing candidate
// reads only a fraction of its pixels.
const sadGroupRows = 4

// SADBlockMax is SADBlock with early termination. It returns the exact SAD
// whenever that SAD is < max; once the partial sum over complete row groups
// reaches max it returns that partial sum (some value >= max) without
// reading the remaining rows. Callers that only test `sad < max` therefore
// make exactly the decisions the full SAD would — see the package comment
// of internal/motion for why this keeps bitstreams byte-identical.
//
//hdvlint:noalloc
func SADBlockMax(a []byte, aStride int, b []byte, bStride, w, h, max int) int {
	if w == 16 {
		return SAD16Max(a, aStride, b, bStride, h, max)
	}
	if w == 8 {
		return SAD8xMax(a, aStride, b, bStride, h, max)
	}
	sad := 0
	for r := 0; r < h; {
		lim := min(r+sadGroupRows, h)
		for ; r < lim; r++ {
			sad += SADRow(a[r*aStride:], b[r*bStride:], w)
		}
		if sad >= max {
			return sad
		}
	}
	return sad
}

// SAD16 returns the SAD of a 16-wide, h-tall block. h must be ≤ 48 so the
// packed accumulator lanes (≤ 1020 per row) cannot overflow.
//
//hdvlint:noalloc
func SAD16(a []byte, aStride int, b []byte, bStride, h int) int {
	var acc uint64
	for r := 0; r < h; r++ {
		a0 := Load64(a[r*aStride:])
		b0 := Load64(b[r*bStride:])
		a1 := Load64(a[r*aStride+8:])
		b1 := Load64(b[r*bStride+8:])
		acc += absDiff16(a0&lo8, b0&lo8) + absDiff16((a0>>8)&lo8, (b0>>8)&lo8)
		acc += absDiff16(a1&lo8, b1&lo8) + absDiff16((a1>>8)&lo8, (b1>>8)&lo8)
	}
	return fold16(acc)
}

// SAD8x returns the SAD of an 8-wide, h-tall block. h must be ≤ 96.
//
//hdvlint:noalloc
func SAD8x(a []byte, aStride int, b []byte, bStride, h int) int {
	var acc uint64
	for r := 0; r < h; r++ {
		av := Load64(a[r*aStride:])
		bv := Load64(b[r*bStride:])
		acc += absDiff16(av&lo8, bv&lo8) + absDiff16((av>>8)&lo8, (bv>>8)&lo8)
	}
	return fold16(acc)
}

// SAD16Max is SAD16 with early termination at max (see SADBlockMax).
//
//hdvlint:noalloc
func SAD16Max(a []byte, aStride int, b []byte, bStride, h, max int) int {
	sad := 0
	for r := 0; r < h; {
		lim := min(r+sadGroupRows, h)
		var acc uint64
		for ; r < lim; r++ {
			a0 := Load64(a[r*aStride:])
			b0 := Load64(b[r*bStride:])
			a1 := Load64(a[r*aStride+8:])
			b1 := Load64(b[r*bStride+8:])
			acc += absDiff16(a0&lo8, b0&lo8) + absDiff16((a0>>8)&lo8, (b0>>8)&lo8)
			acc += absDiff16(a1&lo8, b1&lo8) + absDiff16((a1>>8)&lo8, (b1>>8)&lo8)
		}
		sad += fold16(acc)
		if sad >= max {
			return sad
		}
	}
	return sad
}

// SAD8xMax is SAD8x with early termination at max (see SADBlockMax).
//
//hdvlint:noalloc
func SAD8xMax(a []byte, aStride int, b []byte, bStride, h, max int) int {
	sad := 0
	for r := 0; r < h; {
		lim := min(r+2*sadGroupRows, h)
		var acc uint64
		for ; r < lim; r++ {
			av := Load64(a[r*aStride:])
			bv := Load64(b[r*bStride:])
			acc += absDiff16(av&lo8, bv&lo8) + absDiff16((av>>8)&lo8, (bv>>8)&lo8)
		}
		sad += fold16(acc)
		if sad >= max {
			return sad
		}
	}
	return sad
}

// SADAvg2Max returns the SAD between a w×h block at cur and the rounded
// per-byte average of the blocks at a and b — sum |cur − (a+b+1)>>1| —
// with early termination at max, same contract as SADBlockMax: exact
// whenever the true SAD is < max, some partial sum >= max otherwise. It
// fuses interp.Avg2 + SADBlockMax for quarter-pel candidate scoring, so
// the 256-byte averaged block is never materialized and a losing
// candidate stops averaging as soon as its partial sum crosses the bail
// threshold.
//
//hdvlint:noalloc
func SADAvg2Max(cur []byte, curStride int, a []byte, aStride int, b []byte, bStride, w, h, max int) int {
	if w == 16 {
		return sadAvg216Max(cur, curStride, a, aStride, b, bStride, h, max)
	}
	if w == 8 {
		return sadAvg28Max(cur, curStride, a, aStride, b, bStride, h, max)
	}
	sad := 0
	for r := 0; r < h; {
		lim := min(r+sadGroupRows, h)
		for ; r < lim; r++ {
			ca, aa, ba := cur[r*curStride:], a[r*aStride:], b[r*bStride:]
			for i := 0; i < w; i++ {
				d := int(ca[i]) - (int(aa[i])+int(ba[i])+1)>>1
				if d < 0 {
					d = -d
				}
				sad += d
			}
		}
		if sad >= max {
			return sad
		}
	}
	return sad
}

func sadAvg216Max(cur []byte, curStride int, a []byte, aStride int, b []byte, bStride, h, max int) int {
	sad := 0
	for r := 0; r < h; {
		lim := min(r+sadGroupRows, h)
		var acc uint64
		for ; r < lim; r++ {
			c0 := Load64(cur[r*curStride:])
			c1 := Load64(cur[r*curStride+8:])
			v0 := AvgRound8(Load64(a[r*aStride:]), Load64(b[r*bStride:]))
			v1 := AvgRound8(Load64(a[r*aStride+8:]), Load64(b[r*bStride+8:]))
			acc += absDiff16(c0&lo8, v0&lo8) + absDiff16((c0>>8)&lo8, (v0>>8)&lo8)
			acc += absDiff16(c1&lo8, v1&lo8) + absDiff16((c1>>8)&lo8, (v1>>8)&lo8)
		}
		sad += fold16(acc)
		if sad >= max {
			return sad
		}
	}
	return sad
}

func sadAvg28Max(cur []byte, curStride int, a []byte, aStride int, b []byte, bStride, h, max int) int {
	sad := 0
	for r := 0; r < h; {
		lim := min(r+2*sadGroupRows, h)
		var acc uint64
		for ; r < lim; r++ {
			cv := Load64(cur[r*curStride:])
			av := AvgRound8(Load64(a[r*aStride:]), Load64(b[r*bStride:]))
			acc += absDiff16(cv&lo8, av&lo8) + absDiff16((cv>>8)&lo8, (av>>8)&lo8)
		}
		sad += fold16(acc)
		if sad >= max {
			return sad
		}
	}
	return sad
}

// AvgRound8 returns per-byte (a+b+1)>>1 of the 8 packed bytes.
func AvgRound8(a, b uint64) uint64 {
	return (a | b) - (((a ^ b) >> 1) & low7)
}

// AvgFloor8 returns per-byte (a+b)>>1 of the 8 packed bytes.
func AvgFloor8(a, b uint64) uint64 {
	return (a & b) + (((a ^ b) >> 1) & low7)
}

// AvgRowRound writes dst[i] = (a[i]+b[i]+1)>>1 for i in [0,n).
//
//hdvlint:noalloc
func AvgRowRound(dst, a, b []byte, n int) {
	i := 0
	for ; i+8 <= n; i += 8 {
		Store64(dst[i:], AvgRound8(Load64(a[i:]), Load64(b[i:])))
	}
	for ; i < n; i++ {
		dst[i] = byte((int(a[i]) + int(b[i]) + 1) >> 1)
	}
}

// AvgBlockRound averages two w×h blocks with rounding into dst.
//
//hdvlint:noalloc
func AvgBlockRound(dst []byte, dStride int, a []byte, aStride int, b []byte, bStride, w, h int) {
	for r := 0; r < h; r++ {
		AvgRowRound(dst[r*dStride:], a[r*aStride:], b[r*bStride:], w)
	}
}

// CopyBlock copies a w×h block from src to dst using 8-byte moves.
//
//hdvlint:noalloc
func CopyBlock(dst []byte, dStride int, src []byte, sStride, w, h int) {
	for r := 0; r < h; r++ {
		d := dst[r*dStride : r*dStride+w]
		s := src[r*sStride : r*sStride+w]
		copy(d, s)
	}
}

// Avg4Round2 computes per-byte (a+b+c+d+2)>>2 of four packed-byte vectors.
// It is exact: the computation widens to 16-bit lanes.
func Avg4Round2(a, b, c, d uint64) uint64 {
	// Even bytes.
	se := (a & lo8) + (b & lo8) + (c & lo8) + (d & lo8) + (lsb16 << 1)
	se = (se >> 2) & lo8
	// Odd bytes.
	so := ((a >> 8) & lo8) + ((b >> 8) & lo8) + ((c >> 8) & lo8) + ((d >> 8) & lo8) + (lsb16 << 1)
	so = (so >> 2) & lo8
	return se | so<<8
}

// Avg4RowRound2 writes dst[i] = (a[i]+b[i]+c[i]+d[i]+2)>>2.
//
//hdvlint:noalloc
func Avg4RowRound2(dst, a, b, c, d []byte, n int) {
	i := 0
	for ; i+8 <= n; i += 8 {
		Store64(dst[i:], Avg4Round2(Load64(a[i:]), Load64(b[i:]), Load64(c[i:]), Load64(d[i:])))
	}
	for ; i < n; i++ {
		dst[i] = byte((int(a[i]) + int(b[i]) + int(c[i]) + int(d[i]) + 2) >> 2)
	}
}

// spread4 distributes the 4 bytes of a 32-bit word into the low bytes of
// the four 16-bit lanes of a uint64.
func spread4(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	return (v | v<<8) & lo8
}

// DiffRow writes dst[i] = int32(cur[i]) - int32(pred[i]) for i in [0, n):
// the residual row of every codec's transform input. Differences are formed
// in biased 16-bit lanes (eight at a time) and unpacked once per lane.
//
//hdvlint:noalloc
func DiffRow(dst []int32, cur, pred []byte, n int) {
	i := 0
	for ; i+8 <= n; i += 8 {
		c := Load64(cur[i:])
		p := Load64(pred[i:])
		de := (c & lo8) + bias16 - (p & lo8)               // even bytes: diff+256
		do := ((c >> 8) & lo8) + bias16 - ((p >> 8) & lo8) // odd bytes
		dst[i+0] = int32(de&0xFFFF) - 256
		dst[i+1] = int32(do&0xFFFF) - 256
		dst[i+2] = int32((de>>16)&0xFFFF) - 256
		dst[i+3] = int32((do>>16)&0xFFFF) - 256
		dst[i+4] = int32((de>>32)&0xFFFF) - 256
		dst[i+5] = int32((do>>32)&0xFFFF) - 256
		dst[i+6] = int32((de>>48)&0xFFFF) - 256
		dst[i+7] = int32(do>>48) - 256
	}
	for ; i+4 <= n; i += 4 {
		c := spread4(binary.LittleEndian.Uint32(cur[i:]))
		p := spread4(binary.LittleEndian.Uint32(pred[i:]))
		d := c + bias16 - p
		dst[i+0] = int32(d&0xFFFF) - 256
		dst[i+1] = int32((d>>16)&0xFFFF) - 256
		dst[i+2] = int32((d>>32)&0xFFFF) - 256
		dst[i+3] = int32(d>>48) - 256
	}
	for ; i < n; i++ {
		dst[i] = int32(cur[i]) - int32(pred[i])
	}
}

// AddClampRow writes dst[i] = clamp(int(pred[i]) + int(res[i]), 0, 255)
// for i in [0, n): the inter-reconstruction row of every codec, exact for
// any int32 residual (a damaged stream drives the IDCT far out of range).
// It is a plain loop with one unsigned range test per sample, not packed
// lanes: the input is already one int32 a sample, so packing four of them
// into 16-bit lanes costs a pre-clamp and a shift per sample before the
// lane clamp, and unpacking costs a store per byte after it. The lane
// version took 3–4× as long on an 8×8 block (390–530 against 108–160 ns
// on a 2-core Xeon, amd64).
//
//hdvlint:noalloc
func AddClampRow(dst, pred []byte, res []int32, n int) {
	dst, pred, res = dst[:n], pred[:n], res[:n]
	for i, r := range res {
		v := int64(pred[i]) + int64(r)
		if uint64(v) > 255 {
			v = ^(v >> 63) & 255 // 0 below the range, 255 above it
		}
		dst[i] = byte(v)
	}
}

// SumRow returns the sum of the first n bytes of a, using 16-bit lane
// accumulation. Used by DC predictors and mean computations.
//
//hdvlint:noalloc
func SumRow(a []byte, n int) int {
	sum := 0
	i := 0
	for ; i+8 <= n; i += 8 {
		v := Load64(a[i:])
		s := (v & lo8) + ((v >> 8) & lo8) // four lanes, each ≤ 510
		sum += int((s & 0xFFFF) + ((s >> 16) & 0xFFFF) + ((s >> 32) & 0xFFFF) + (s >> 48))
	}
	for ; i < n; i++ {
		sum += int(a[i])
	}
	return sum
}
