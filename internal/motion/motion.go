// Package motion implements full-pel motion estimation for the
// HD-VideoBench encoders: exhaustive full search (reference), small-diamond
// refinement, EPZS (Enhanced Predictive Zonal Search — the paper's choice
// for the MPEG-2 and MPEG-4 encoders) and hexagon search (the paper's
// choice for H.264, x264's `--me hex`).
//
// The SAD cost kernel follows the session-wide scalar/SWAR selection, which
// is the single largest SIMD lever in the encoders.
//
// # Early termination is invisible in the bitstream
//
// Every searcher threads its best-so-far cost into the candidate
// evaluation (CostMax): the λ·mvbits term is computed first and the SAD is
// skipped entirely when that term alone already reaches the budget;
// otherwise the SAD kernel bails as soon as its partial row-group sum
// reaches budget−mvbits. This cannot change any decision, because
//
//   - a candidate is accepted only under the strict test cost < best, and
//   - the partial SAD sum is monotone, so a bail at partial ≥ threshold
//     proves the true cost is ≥ best — exactly the candidates the full
//     evaluation would have rejected, and
//   - a candidate that is accepted never bailed, so its recorded cost (the
//     next budget) is exact.
//
// The same argument covers the duplicate-probe skipping in the diamond and
// hexagon descents: a vector probed earlier has cost ≥ the current best
// (best is the running minimum of everything probed), so re-evaluating it
// can never pass the strict test. Encoded streams are therefore
// byte-identical with and without these optimizations — pinned by the
// equivalence matrix in the repository root.
package motion

import (
	"hdvideobench/internal/entropy"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/interp"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/swar"
)

// MV is a full-pel motion vector.
type MV struct {
	X, Y int16
}

// Estimator evaluates block-matching costs for one current block against
// one reference plane. Fields are plain data so codecs can reuse a single
// value per macroblock loop without allocation.
type Estimator struct {
	Kern kernel.Set

	// Cur addresses the current block: Cur[CurOff + r*CurStride + c].
	Cur       []byte
	CurOff    int
	CurStride int

	// Ref addresses the reference plane: sample (y,x) of the picture is
	// Ref[RefOrigin + y*RefStride + x]. The plane must be padded. Codecs
	// may repoint Ref at a precomputed half-pel plane of the same
	// geometry to score sub-pel candidates without interpolating.
	Ref       []byte
	RefOrigin int
	RefStride int

	// Block geometry: position of the block in the picture and its size.
	PosX, PosY int
	W, H       int

	// Search window clamp in MV units (inclusive); must keep PosX+mv within
	// the padded reference area.
	MinX, MinY, MaxX, MaxY int

	// Lambda scales the motion-vector cost added to SAD; Pred is the
	// predicted MV against which vector bits are estimated.
	Lambda int
	Pred   MV
}

// Window sets the clamp window from a search range and the picture/padding
// geometry: vectors stay within ±searchRange and within pad-safe bounds.
func (e *Estimator) Window(searchRange, width, height, pad int) {
	margin := pad - 8 // keep 6-tap + qpel margin legal after refinement
	if margin < 0 {
		margin = 0
	}
	e.MinX = max(-searchRange, -e.PosX-margin)
	e.MaxX = min(searchRange, width-e.PosX-e.W+margin)
	e.MinY = max(-searchRange, -e.PosY-margin)
	e.MaxY = min(searchRange, height-e.PosY-e.H+margin)
	if e.MaxX < e.MinX {
		e.MinX, e.MaxX = 0, 0
	}
	if e.MaxY < e.MinY {
		e.MinY, e.MaxY = 0, 0
	}
}

// SAD returns the sum of absolute differences at motion vector (x, y).
//
//hdvlint:noalloc
func (e *Estimator) SAD(x, y int) int {
	so := e.RefOrigin + (e.PosY+y)*e.RefStride + (e.PosX + x)
	if e.Kern == kernel.SWAR {
		return swar.SADBlock(e.Cur[e.CurOff:], e.CurStride, e.Ref[so:], e.RefStride, e.W, e.H)
	}
	return sadScalar(e.Cur[e.CurOff:], e.CurStride, e.Ref[so:], e.RefStride, e.W, e.H)
}

// SADMax returns the SAD at (x, y) with early termination: the result is
// exact when it is < max, and some partial sum >= max otherwise, so
// `sad < max` tests decide exactly as a full SAD would.
//
//hdvlint:noalloc
func (e *Estimator) SADMax(x, y, max int) int {
	so := e.RefOrigin + (e.PosY+y)*e.RefStride + (e.PosX + x)
	if e.Kern == kernel.SWAR {
		return swar.SADBlockMax(e.Cur[e.CurOff:], e.CurStride, e.Ref[so:], e.RefStride, e.W, e.H, max)
	}
	return sadScalarMax(e.Cur[e.CurOff:], e.CurStride, e.Ref[so:], e.RefStride, e.W, e.H, max)
}

// SADBlockMax dispatches the early-termination SAD kernel on the kernel
// set, for codecs scoring candidates in scratch buffers (sub-pel
// refinement) outside an Estimator.
//
//hdvlint:noalloc
func SADBlockMax(k kernel.Set, a []byte, aStride int, b []byte, bStride, w, h, max int) int {
	if k == kernel.SWAR {
		return swar.SADBlockMax(a, aStride, b, bStride, w, h, max)
	}
	return sadScalarMax(a, aStride, b, bStride, w, h, max)
}

// SADQPel scores one quarter-pel candidate against a reference's
// precomputed 6-tap half planes (the shared core of the MPEG-4 and H.264
// sub-pel refinements): half positions SAD directly against a plane,
// quarter positions score through the fused SAD-of-average kernel — the
// |cur − avg(a,b)| sum is formed inline from the two source planes, so
// the averaged candidate block is never materialized and the early
// termination at max reaches through the averaging too. Same exactness
// contract as SADBlockMax: exact when the result is < max, some partial
// sum >= max otherwise. cur addresses the current block at curStride; so
// is the integer-pel top-left offset into the reference's
// (plane-geometry) luma, fx/fy the quarter-pel fractions.
//
//hdvlint:noalloc
func SADQPel(k kernel.Set, cur []byte, curStride int, ref *frame.Frame, so, w, h, fx, fy, max int) int {
	a, ao, b, bo := interp.QPelSources(ref.Y, ref.Hpel6, so, ref.YStride, fx, fy)
	if b == nil {
		return SADBlockMax(k, cur, curStride, a[ao:], ref.YStride, w, h, max)
	}
	if k == kernel.SWAR {
		return swar.SADAvg2Max(cur, curStride, a[ao:], ref.YStride, b[bo:], ref.YStride, w, h, max)
	}
	return sadAvg2ScalarMax(cur, curStride, a[ao:], ref.YStride, b[bo:], ref.YStride, w, h, max)
}

//hdvlint:noalloc
func sadScalar(a []byte, aStride int, b []byte, bStride, w, h int) int {
	sad := 0
	for r := 0; r < h; r++ {
		ar := a[r*aStride : r*aStride+w]
		br := b[r*bStride : r*bStride+w]
		for i := 0; i < w; i++ {
			d := int(ar[i]) - int(br[i])
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// sadScalarMax is the scalar twin of swar.SADBlockMax: exact below max,
// bails on complete row groups once the partial sum reaches max.
//
//hdvlint:noalloc
func sadScalarMax(a []byte, aStride int, b []byte, bStride, w, h, max int) int {
	sad := 0
	for r := 0; r < h; {
		lim := min(r+4, h)
		for ; r < lim; r++ {
			ar := a[r*aStride : r*aStride+w]
			br := b[r*bStride : r*bStride+w]
			for i := 0; i < w; i++ {
				d := int(ar[i]) - int(br[i])
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

// sadAvg2ScalarMax is the scalar twin of swar.SADAvg2Max: the SAD of cur
// against the rounded average of a and b, exact below max, bailing on
// complete row groups once the partial sum reaches max.
//
//hdvlint:noalloc
func sadAvg2ScalarMax(cur []byte, curStride int, a []byte, aStride int, b []byte, bStride, w, h, max int) int {
	sad := 0
	for r := 0; r < h; {
		lim := min(r+4, h)
		for ; r < lim; r++ {
			cr := cur[r*curStride : r*curStride+w]
			ar := a[r*aStride : r*aStride+w]
			br := b[r*bStride : r*bStride+w]
			for i := 0; i < w; i++ {
				d := int(cr[i]) - (int(ar[i])+int(br[i])+1)>>1
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

// Cost returns SAD plus the λ-weighted estimated bit cost of coding
// (x,y) − Pred.
//
//hdvlint:noalloc
func (e *Estimator) Cost(x, y int) int {
	return e.SAD(x, y) + e.Lambda*mvBits(x-int(e.Pred.X), y-int(e.Pred.Y))
}

// CostMax returns Cost(x, y) with the best-so-far cost as a budget: the
// result is exact whenever it is < budget. When the true cost is >= budget
// it may return early — skipping the SAD entirely if λ·mvbits alone
// already loses — with some value >= budget, so the strict acceptance test
// `cost < budget` decides exactly as the full evaluation would.
//
//hdvlint:noalloc
func (e *Estimator) CostMax(x, y, budget int) int {
	mvCost := e.Lambda * mvBits(x-int(e.Pred.X), y-int(e.Pred.Y))
	if mvCost >= budget {
		return mvCost
	}
	return e.SADMax(x, y, budget-mvCost) + mvCost
}

// MVCost returns the λ-weighted vector-bit cost of (x, y) — the non-SAD
// term of Cost. A search winner's cost is always exact (an accepted
// candidate never bailed), so callers recover its exact SAD as
// Result.Cost − MVCost(Result.MV) without re-reading a single pixel.
//
//hdvlint:noalloc
func (e *Estimator) MVCost(x, y int) int {
	return e.Lambda * mvBits(x-int(e.Pred.X), y-int(e.Pred.Y))
}

// mvBits estimates the Exp-Golomb bit cost of a motion vector difference.
func mvBits(dx, dy int) int {
	return entropy.SEBits(dx) + entropy.SEBits(dy)
}

func (e *Estimator) inWindow(x, y int) bool {
	return x >= e.MinX && x <= e.MaxX && y >= e.MinY && y <= e.MaxY
}

// clampMV clamps v into the estimator window.
func (e *Estimator) clampMV(v MV) MV {
	x := min(max(int(v.X), e.MinX), e.MaxX)
	y := min(max(int(v.Y), e.MinY), e.MaxY)
	return MV{int16(x), int16(y)}
}

// Result is the outcome of a search: the best vector and its cost
// (SAD + λ·bits).
type Result struct {
	MV   MV
	Cost int
}

// probeRing remembers recently probed vectors so the refinement descents
// skip re-evaluating them. The dedupe is best-effort (a bounded ring):
// missing a duplicate merely costs a redundant evaluation whose strict
// `cost < best` test cannot change the outcome, so search results are
// identical with or without it (see the package comment).
type probeRing struct {
	mvs  [16]MV
	n    int
	head int
}

func (p *probeRing) seen(v MV) bool {
	for i := 0; i < p.n; i++ {
		if p.mvs[i] == v {
			return true
		}
	}
	return false
}

func (p *probeRing) add(v MV) {
	p.mvs[p.head] = v
	p.head++
	if p.head == len(p.mvs) {
		p.head = 0
	}
	if p.n < len(p.mvs) {
		p.n++
	}
}

// FullSearch exhaustively scans the window. It is the reference searcher
// (and the ablation baseline — the paper's codecs use fast searches
// precisely because full search is unusably slow at HD). The scan is
// seeded from the clamped predictor, so a degenerate (empty or
// single-point) window can never report an untested vector with a
// sentinel cost.
//
//hdvlint:noalloc
func (e *Estimator) FullSearch() Result {
	start := e.clampMV(e.Pred)
	best := Result{start, e.Cost(int(start.X), int(start.Y))}
	for y := e.MinY; y <= e.MaxY; y++ {
		for x := e.MinX; x <= e.MaxX; x++ {
			if x == int(start.X) && y == int(start.Y) {
				continue // seeded
			}
			if c := e.CostMax(x, y, best.Cost); c < best.Cost {
				best = Result{MV{int16(x), int16(y)}, c}
			}
		}
	}
	return best
}

var smallDiamond = [4]MV{{0, -1}, {-1, 0}, {1, 0}, {0, 1}}

// DiamondSearch refines start with a small-diamond pattern until no move
// improves the cost.
//
//hdvlint:noalloc
func (e *Estimator) DiamondSearch(start MV) Result {
	cur := e.clampMV(start)
	var ring probeRing
	return e.diamondFrom(Result{cur, e.Cost(int(cur.X), int(cur.Y))}, &ring)
}

// diamondFrom runs the small-diamond descent from an already-evaluated
// result (MV inside the window, Cost exact). ring carries the vectors
// probed so far by the caller.
//
//hdvlint:noalloc
func (e *Estimator) diamondFrom(best Result, ring *probeRing) Result {
	if !ring.seen(best.MV) {
		ring.add(best.MV)
	}
	for {
		improved := false
		// Candidates are relative to best.MV, which moves mid-iteration:
		// the descent greedily re-centers as soon as a probe improves.
		for _, d := range smallDiamond {
			x := int(best.MV.X) + int(d.X)
			y := int(best.MV.Y) + int(d.Y)
			if !e.inWindow(x, y) {
				continue
			}
			v := MV{int16(x), int16(y)}
			if ring.seen(v) {
				continue
			}
			ring.add(v)
			if c := e.CostMax(x, y, best.Cost); c < best.Cost {
				best = Result{v, c}
				improved = true
			}
		}
		if !improved {
			return best
		}
	}
}

// hexPattern is the large hexagon (x264's hex search step).
var hexPattern = [6]MV{{-2, 0}, {-1, -2}, {1, -2}, {2, 0}, {1, 2}, {-1, 2}}

// HexagonSearch runs a large-hexagon descent from start followed by
// small-diamond refinement — the `--me hex` algorithm of the paper's x264
// configuration (Zhu/Lin/Chau hexagon-based search).
//
//hdvlint:noalloc
func (e *Estimator) HexagonSearch(start MV) Result {
	cur := e.clampMV(start)
	return e.HexagonFrom(Result{cur, e.Cost(int(cur.X), int(cur.Y))})
}

// HexagonFrom is HexagonSearch continuing from an already-evaluated result
// (MV inside the window, Cost exact): callers chaining searches (EPZS →
// hexagon) avoid re-evaluating the start vector.
//
//hdvlint:noalloc
func (e *Estimator) HexagonFrom(best Result) Result {
	var ring probeRing
	ring.add(best.MV)
	for steps := 0; steps < 64; steps++ {
		improved := false
		center := best.MV
		for _, d := range hexPattern {
			x := int(center.X) + int(d.X)
			y := int(center.Y) + int(d.Y)
			if !e.inWindow(x, y) {
				continue
			}
			v := MV{int16(x), int16(y)}
			if ring.seen(v) {
				continue // three of six points repeat after each move
			}
			ring.add(v)
			if c := e.CostMax(x, y, best.Cost); c < best.Cost {
				best = Result{v, c}
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	// Final small-diamond refinement (its ±1 candidates are disjoint from
	// the hexagon's ±2 probes, so a fresh ring is enough).
	var dring probeRing
	return e.diamondFrom(best, &dring)
}

// EPZS implements Enhanced Predictive Zonal Search: evaluate a predictor
// set (median/spatial neighbours, collocated, accelerated, zero), early-out
// if the best predictor is already below the adaptive threshold, otherwise
// refine with a small diamond. preds may contain duplicates; they are
// deduplicated cheaply, and the diamond refinement inherits the probed set
// so it never re-scores a predictor.
//
//hdvlint:noalloc
func (e *Estimator) EPZS(preds []MV, earlyExit int) Result {
	best := Result{Cost: 1 << 30}
	var seen [12]MV
	n := 0
	//hdvlint:allow noalloc -- try never escapes, so it stays on the stack; TestSearchAllocs pins EPZS at 0 allocs/op
	try := func(v MV) {
		v = e.clampMV(v)
		for i := 0; i < n; i++ {
			if seen[i] == v {
				return
			}
		}
		if n < len(seen) {
			seen[n] = v
			n++
		}
		if c := e.CostMax(int(v.X), int(v.Y), best.Cost); c < best.Cost {
			best = Result{v, c}
		}
	}
	try(MV{0, 0})
	try(e.Pred)
	for _, p := range preds {
		try(p)
	}
	if best.Cost <= earlyExit {
		return best
	}
	var ring probeRing
	for i := 0; i < n; i++ {
		ring.add(seen[i])
	}
	return e.diamondFrom(best, &ring)
}

// MedianMV returns the component-wise median of three predictors, the
// standard spatial MV predictor of MPEG-4 and H.264.
func MedianMV(a, b, c MV) MV {
	return MV{median3(a.X, b.X, c.X), median3(a.Y, b.Y, c.Y)}
}

func median3(a, b, c int16) int16 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
