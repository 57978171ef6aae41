package pipeline

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"hdvideobench/internal/obs"
)

// newFront returns the wavefront of a fresh workers-token gate with the
// caller's own token already taken — the state a codec call runs in.
func newFront(workers int) (*SliceGate, *Wavefront) {
	g := NewSliceGate(workers)
	g.Acquire(context.Background())
	return g, g.Wavefront()
}

// wfCheck runs a front over rows×cols with the given worker budget and
// verifies the dependency contract: every cell runs exactly once, never
// before its left and top-right neighbours, and cells of a row run in
// left-to-right order.
func wfCheck(t *testing.T, workers, rows, cols int) {
	t.Helper()
	_, w := newFront(workers)
	var mu sync.Mutex
	done := make([][]bool, rows)
	rowX := make([]int, rows)
	for i := range done {
		done[i] = make([]bool, cols)
		rowX[i] = -1
	}
	ok := w.Run(rows, cols, func(x, y int) bool {
		mu.Lock()
		defer mu.Unlock()
		if done[y][x] {
			t.Errorf("cell (%d,%d) ran twice", x, y)
		}
		if x > 0 && !done[y][x-1] {
			t.Errorf("cell (%d,%d) ran before left neighbour", x, y)
		}
		if y > 0 {
			dep := x + 1
			if dep > cols-1 {
				dep = cols - 1
			}
			if !done[y-1][dep] {
				t.Errorf("cell (%d,%d) ran before top-right neighbour (%d,%d)", x, y, dep, y-1)
			}
		}
		if rowX[y] != x-1 {
			t.Errorf("row %d: cell x=%d after x=%d (not left-to-right)", y, x, rowX[y])
		}
		rowX[y] = x
		done[y][x] = true
		return true
	})
	if !ok {
		t.Fatal("Run returned false without an abort")
	}
	for y := range done {
		for x := range done[y] {
			if !done[y][x] {
				t.Fatalf("cell (%d,%d) never ran", x, y)
			}
		}
	}
}

func TestWavefrontShapes(t *testing.T) {
	shapes := []struct{ workers, rows, cols int }{
		{1, 4, 8},   // serial
		{4, 4, 8},   // square-ish front
		{4, 1, 16},  // single row
		{4, 16, 1},  // 1-MB-wide frame: the front degenerates to a chain
		{16, 3, 5},  // workers exceed row count
		{3, 12, 2},  // frame narrower than the front is deep
		{2, 2, 2},   // minimal 2D
		{8, 40, 45}, // 720p-slice-like shape
		{4, 0, 8},   // empty grids are no-ops
		{4, 8, 0},
	}
	for _, s := range shapes {
		wfCheck(t, s.workers, s.rows, s.cols)
	}
}

// TestWavefrontAbort aborts mid-front and verifies Run returns false with
// every helper joined (the -race run catches unsynchronized stragglers),
// and that the scheduler is reusable afterwards.
func TestWavefrontAbort(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		_, w := newFront(workers)
		var calls atomic.Int32
		ok := w.Run(16, 16, func(x, y int) bool {
			calls.Add(1)
			return !(x == 7 && y == 3)
		})
		if ok {
			t.Fatalf("workers=%d: Run returned true despite abort", workers)
		}
		if n := calls.Load(); n < 1 || n > 16*16 {
			t.Fatalf("workers=%d: %d calls", workers, n)
		}
		if !w.Run(4, 4, func(x, y int) bool { return true }) {
			t.Fatalf("workers=%d: front not reusable after abort", workers)
		}
	}
}

// TestWavefrontTokensReturned proves helper tokens go back to the bank:
// after any Run (completed or aborted), everything but the caller's own
// token is available again.
func TestWavefrontTokensReturned(t *testing.T) {
	g, w := newFront(5)
	w.Run(8, 8, func(x, y int) bool { return true })
	w.Run(8, 8, func(x, y int) bool { return x+y < 4 })
	if got := len(g.tokens); got != 4 {
		t.Fatalf("tokens after runs: %d, want 4", got)
	}
}

// TestWavefrontEmptyBankIsSerial pins the degenerate path: with every
// token busy elsewhere the front is one goroutine in raster order.
func TestWavefrontEmptyBankIsSerial(t *testing.T) {
	g, w := newFront(2)
	g.Acquire(context.Background()) // the other worker is busy
	next := 0
	ok := w.Run(4, 4, func(x, y int) bool {
		if y*4+x != next {
			t.Errorf("cell (%d,%d) out of raster order", x, y)
		}
		next++
		return true
	})
	if !ok || next != 16 {
		t.Fatalf("ok=%v cells=%d", ok, next)
	}
}

// TestWavefrontObserve drives the collector's front-depth histogram.
func TestWavefrontObserve(t *testing.T) {
	reg := obs.NewRegistry()
	col := &obs.Collector{
		WavefrontWait: reg.Histogram("wf_wait_seconds", "test", nil).With(),
		FrontDepth:    reg.Histogram("wf_front_depth", "test", nil).With(),
	}
	g := NewSliceGate(4).Observe(col)
	g.Acquire(context.Background())
	w := g.Wavefront()
	w.Run(64, 4, func(x, y int) bool { return true })
	if col.FrontDepth.Count() != 1 {
		t.Fatalf("FrontDepth count = %d", col.FrontDepth.Count())
	}
}

func BenchmarkWavefront(b *testing.B) {
	// 720p-frame shape: 45 rows × 80 cols, simulated macroblock work.
	for _, workers := range []int{1, 4} {
		name := map[int]string{1: "workers=1", 4: "workers=4"}[workers]
		b.Run(name, func(b *testing.B) {
			_, w := newFront(workers)
			var sink atomic.Int64
			for i := 0; i < b.N; i++ {
				w.Run(45, 80, func(x, y int) bool {
					acc := int64(0)
					for k := 0; k < 200; k++ {
						acc += int64(k * (x + y))
					}
					sink.Add(acc & 1)
					return true
				})
			}
		})
	}
}
