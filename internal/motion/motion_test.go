package motion

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hdvideobench/internal/kernel"
)

// makeShifted builds a textured reference plane and a current frame that is
// the reference translated by (dx, dy).
func makeShifted(rng *rand.Rand, w, h, pad, dx, dy int) (ref []byte, refOrigin, refStride int, cur []byte, curStride int) {
	refStride = w + 2*pad
	ref = make([]byte, refStride*(h+2*pad))
	rng.Read(ref)
	// Smooth the noise so matching is unambiguous at block level but has
	// gradients (pure noise makes every SAD similar).
	for i := 1; i < len(ref); i++ {
		ref[i] = byte((3*int(ref[i-1]) + int(ref[i])) >> 2)
	}
	refOrigin = pad*refStride + pad
	curStride = w
	cur = make([]byte, w*h)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			cur[r*w+c] = ref[refOrigin+(r+dy)*refStride+(c+dx)]
		}
	}
	return
}

func newEstimator(ref []byte, refOrigin, refStride int, cur []byte, curStride int, bx, by int, k kernel.Set) *Estimator {
	e := &Estimator{
		Kern: k,
		Cur:  cur, CurOff: by*curStride + bx, CurStride: curStride,
		Ref: ref, RefOrigin: refOrigin, RefStride: refStride,
		PosX: bx, PosY: by, W: 16, H: 16,
		Lambda: 0,
	}
	e.Window(16, 64, 64, 24)
	return e
}

func TestFullSearchFindsExactShift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shift := range [][2]int{{0, 0}, {3, 2}, {-5, 7}, {8, -8}, {-12, -3}} {
		ref, ro, rs, cur, cs := makeShifted(rng, 64, 64, 24, shift[0], shift[1])
		e := newEstimator(ref, ro, rs, cur, cs, 24, 24, kernel.Scalar)
		res := e.FullSearch()
		if int(res.MV.X) != shift[0] || int(res.MV.Y) != shift[1] {
			t.Errorf("shift %v: full search found (%d,%d) cost %d",
				shift, res.MV.X, res.MV.Y, res.Cost)
		}
		if res.Cost != 0 {
			t.Errorf("shift %v: exact match must cost 0, got %d", shift, res.Cost)
		}
	}
}

func TestSearchersAgreeOnKernelSets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref, ro, rs, cur, cs := makeShifted(rng, 64, 64, 24, 4, -6)
	for _, k := range []kernel.Set{kernel.Scalar, kernel.SWAR} {
		e := newEstimator(ref, ro, rs, cur, cs, 24, 24, k)
		if res := e.FullSearch(); int(res.MV.X) != 4 || int(res.MV.Y) != -6 {
			t.Errorf("kernel %v: found (%d,%d)", k, res.MV.X, res.MV.Y)
		}
	}
}

func TestSADKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref, ro, rs, cur, cs := makeShifted(rng, 64, 64, 24, 0, 0)
	es := newEstimator(ref, ro, rs, cur, cs, 16, 16, kernel.Scalar)
	ew := newEstimator(ref, ro, rs, cur, cs, 16, 16, kernel.SWAR)
	for y := -8; y <= 8; y++ {
		for x := -8; x <= 8; x++ {
			if es.SAD(x, y) != ew.SAD(x, y) {
				t.Fatalf("SAD differs at (%d,%d): %d vs %d", x, y, es.SAD(x, y), ew.SAD(x, y))
			}
		}
	}
}

// makeGradientShifted builds a smooth low-frequency texture (heavily
// blurred noise: a wide descent basin with a unique optimum) shifted by
// (dx, dy).
func makeGradientShifted(w, h, pad, dx, dy int) (ref []byte, refOrigin, refStride int, cur []byte, curStride int) {
	rng := rand.New(rand.NewSource(42))
	refStride = w + 2*pad
	rows := h + 2*pad
	ref = make([]byte, refStride*rows)
	rng.Read(ref)
	// Two passes of a separable radius-7 box blur → features ~15 px wide.
	tmp := make([]byte, len(ref))
	for pass := 0; pass < 2; pass++ {
		boxBlurH(tmp, ref, refStride, rows, 7)
		boxBlurV(ref, tmp, refStride, rows, 7)
	}
	refOrigin = pad*refStride + pad
	curStride = w
	cur = make([]byte, w*h)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			cur[r*w+c] = ref[refOrigin+(r+dy)*refStride+(c+dx)]
		}
	}
	return
}

func boxBlurH(dst, src []byte, stride, rows, rad int) {
	for r := 0; r < rows; r++ {
		for c := 0; c < stride; c++ {
			sum, n := 0, 0
			for k := -rad; k <= rad; k++ {
				if c+k >= 0 && c+k < stride {
					sum += int(src[r*stride+c+k])
					n++
				}
			}
			dst[r*stride+c] = byte(sum / n)
		}
	}
}

func boxBlurV(dst, src []byte, stride, rows, rad int) {
	for r := 0; r < rows; r++ {
		for c := 0; c < stride; c++ {
			sum, n := 0, 0
			for k := -rad; k <= rad; k++ {
				if r+k >= 0 && r+k < rows {
					sum += int(src[(r+k)*stride+c])
					n++
				}
			}
			dst[r*stride+c] = byte(sum / n)
		}
	}
}

func TestHexagonFindsLargeShiftOnSmoothTexture(t *testing.T) {
	for _, shift := range [][2]int{{10, 4}, {-9, -11}, {14, 0}} {
		ref, ro, rs, cur, cs := makeGradientShifted(64, 64, 24, shift[0], shift[1])
		e := newEstimator(ref, ro, rs, cur, cs, 24, 24, kernel.Scalar)
		res := e.HexagonSearch(MV{0, 0})
		if int(res.MV.X) != shift[0] || int(res.MV.Y) != shift[1] {
			t.Errorf("shift %v: hexagon found (%d,%d) cost %d",
				shift, res.MV.X, res.MV.Y, res.Cost)
		}
	}
}

func TestHexagonStaysAtOptimum(t *testing.T) {
	// Seeded with the true vector (the predictor case), hexagon must keep it.
	rng := rand.New(rand.NewSource(4))
	for _, shift := range [][2]int{{10, 4}, {-9, -11}} {
		ref, ro, rs, cur, cs := makeShifted(rng, 64, 64, 24, shift[0], shift[1])
		e := newEstimator(ref, ro, rs, cur, cs, 24, 24, kernel.Scalar)
		res := e.HexagonSearch(MV{int16(shift[0]), int16(shift[1])})
		if res.Cost != 0 {
			t.Errorf("shift %v: hexagon left the optimum, cost %d mv %+v",
				shift, res.Cost, res.MV)
		}
	}
}

func TestEPZSUsesPredictors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shift := [2]int{13, -9}
	ref, ro, rs, cur, cs := makeShifted(rng, 64, 64, 24, shift[0], shift[1])
	e := newEstimator(ref, ro, rs, cur, cs, 24, 24, kernel.Scalar)
	// With the true vector among the predictors, EPZS must land on it.
	res := e.EPZS([]MV{{2, 2}, {int16(shift[0]), int16(shift[1])}}, 0)
	if int(res.MV.X) != shift[0] || int(res.MV.Y) != shift[1] || res.Cost != 0 {
		t.Errorf("EPZS found (%d,%d) cost %d, want exact %v",
			res.MV.X, res.MV.Y, res.Cost, shift)
	}
}

func TestEPZSEarlyExit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref, ro, rs, cur, cs := makeShifted(rng, 64, 64, 24, 0, 0)
	e := newEstimator(ref, ro, rs, cur, cs, 24, 24, kernel.Scalar)
	// Zero MV is exact; with a generous threshold EPZS must return at once.
	res := e.EPZS(nil, 1<<20)
	if res.MV != (MV{0, 0}) || res.Cost != 0 {
		t.Errorf("early exit failed: %+v", res)
	}
}

func TestSearchRespectsWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref, ro, rs, cur, cs := makeShifted(rng, 64, 64, 24, 0, 0)
	e := newEstimator(ref, ro, rs, cur, cs, 0, 0, kernel.Scalar) // corner block
	if e.MinX > 0 || e.MinY > 0 {
		t.Fatalf("window: MinX=%d MinY=%d", e.MinX, e.MinY)
	}
	res := e.FullSearch()
	if int(res.MV.X) < e.MinX || int(res.MV.X) > e.MaxX ||
		int(res.MV.Y) < e.MinY || int(res.MV.Y) > e.MaxY {
		t.Errorf("result %+v outside window [%d,%d]x[%d,%d]",
			res.MV, e.MinX, e.MaxX, e.MinY, e.MaxY)
	}
	// Hexagon from an out-of-window start must clamp.
	res = e.HexagonSearch(MV{-100, -100})
	if int(res.MV.X) < e.MinX || int(res.MV.Y) < e.MinY {
		t.Errorf("hexagon escaped window: %+v", res.MV)
	}
}

func TestLambdaBiasesTowardPredictor(t *testing.T) {
	// On a flat (ambiguous) region, a non-zero lambda must pull the result
	// to the predictor.
	ref := make([]byte, 128*128)
	for i := range ref {
		ref[i] = 128
	}
	cur := make([]byte, 64*64)
	for i := range cur {
		cur[i] = 128
	}
	e := &Estimator{
		Kern: kernel.Scalar,
		Cur:  cur, CurOff: 24*64 + 24, CurStride: 64,
		Ref: ref, RefOrigin: 32*128 + 32, RefStride: 128,
		PosX: 24, PosY: 24, W: 16, H: 16,
		Lambda: 4, Pred: MV{5, -3},
	}
	e.Window(16, 64, 64, 24)
	res := e.FullSearch()
	if res.MV != e.Pred {
		t.Errorf("flat region with lambda: got %+v, want predictor %+v", res.MV, e.Pred)
	}
}

func TestMedianMV(t *testing.T) {
	cases := []struct{ a, b, c, want MV }{
		{MV{1, 1}, MV{2, 2}, MV{3, 3}, MV{2, 2}},
		{MV{5, 0}, MV{-5, 0}, MV{0, 7}, MV{0, 0}},
		{MV{1, 9}, MV{1, 9}, MV{100, -100}, MV{1, 9}},
	}
	for _, cse := range cases {
		if got := MedianMV(cse.a, cse.b, cse.c); got != cse.want {
			t.Errorf("median(%v,%v,%v) = %v, want %v", cse.a, cse.b, cse.c, got, cse.want)
		}
	}
}

func TestMedianMVProperty(t *testing.T) {
	// The median is always one of the inputs per component and lies between
	// the other two.
	check := func(ax, ay, bx, by, cx, cy int16) bool {
		m := MedianMV(MV{ax, ay}, MV{bx, by}, MV{cx, cy})
		okX := (m.X >= min16(ax, bx, cx)) && (m.X <= max16(ax, bx, cx))
		okY := (m.Y >= min16(ay, by, cy)) && (m.Y <= max16(ay, by, cy))
		return okX && okY
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func min16(vs ...int16) int16 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func max16(vs ...int16) int16 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func BenchmarkFullSearch16(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	ref, ro, rs, cur, cs := makeShifted(rng, 64, 64, 24, 3, -2)
	e := newEstimator(ref, ro, rs, cur, cs, 24, 24, kernel.SWAR)
	for i := 0; i < b.N; i++ {
		e.FullSearch()
	}
}

func BenchmarkHexagonSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	ref, ro, rs, cur, cs := makeShifted(rng, 64, 64, 24, 3, -2)
	e := newEstimator(ref, ro, rs, cur, cs, 24, 24, kernel.SWAR)
	for i := 0; i < b.N; i++ {
		e.HexagonSearch(MV{0, 0})
	}
}

func BenchmarkEPZS(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	ref, ro, rs, cur, cs := makeShifted(rng, 64, 64, 24, 3, -2)
	e := newEstimator(ref, ro, rs, cur, cs, 24, 24, kernel.SWAR)
	preds := []MV{{3, -2}, {1, 0}}
	for i := 0; i < b.N; i++ {
		e.EPZS(preds, 256)
	}
}
