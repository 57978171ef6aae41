package pipeline

import (
	"sync"
	"sync/atomic"
	"time"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/obs"
)

// Wavefront schedules one slice's macroblock grid in 2D dependency order
// (codec.WavefrontRunner): macroblock (x, y) runs once (x-1, y) and
// (x+1, y-1) are done. It is the third axis under the gate's one budget
// — GOP chunks, the slices of a frame, and the rows *inside* one slice —
// and the only one that parallelizes a frame without touching the
// bitstream: slices pay a prediction reset at every boundary, the
// wavefront computes exactly the serial values in a compatible order.
//
// Scheduling is row-ownership based: each participating goroutine claims
// the lowest unclaimed row and walks it left-to-right, publishing its
// progress after every macroblock and waiting (spin, then park on a
// shared Cond) until the row above is two macroblocks ahead. Rows are
// claimed in increasing order, so the goroutine owning the lowest
// incomplete row never waits — the front cannot deadlock — and cells of
// one row always run on one goroutine, so row-local codec state needs no
// synchronization.
//
// The caller of Run is inside a codec call and so already holds a token
// (see SliceGate); every extra row helper takes one more from the same
// bank without blocking and returns it when the front runs out of rows.
// With no token free — every chunk worker busy — the caller walks the
// grid in plain raster order, which satisfies the dependency rule
// trivially and costs nothing over the codec's serial loop.
type Wavefront struct {
	gate *SliceGate
}

// Wavefront returns the row scheduler drawing on the gate's bank (and
// reporting to its collector).
func (g *SliceGate) Wavefront() *Wavefront {
	return &Wavefront{gate: g}
}

// wfState is the shared state of one running front.
type wfState struct {
	cols     int
	rows     int
	nextRow  atomic.Int32   // next unclaimed row
	progress []atomic.Int32 // macroblocks completed per row
	aborted  atomic.Bool

	mu      sync.Mutex
	cond    sync.Cond
	waiters atomic.Int32
}

// wfSpin is how many progress polls a dependency wait burns before
// parking on the Cond. Macroblocks take microseconds, so a short spin
// almost always observes the row above advancing without a syscall.
const wfSpin = 256

// Run implements codec.WavefrontRunner. See the type comment for the
// schedule; Run returns only after every spawned helper has exited, so an
// abort (mb returning false) cannot leak goroutines or tokens. A panic in
// mb, on a helper or on the caller, aborts the front — rows parked on
// the panicking row wake — and is re-raised on the caller once every
// helper has exited.
func (w *Wavefront) Run(rows, cols int, mb func(x, y int) bool) bool {
	if rows <= 0 || cols <= 0 {
		return true
	}
	// Fund helpers with whatever tokens are free right now; the caller is
	// always a participant.
	helpers := 0
	for helpers < rows-1 && w.gate.tryAcquire() {
		helpers++
	}
	col := w.gate.col
	if rows > 1 {
		col.ObserveFrontDepth(helpers + 1)
	}
	if helpers == 0 {
		return codec.SerialWavefront(rows, cols, mb)
	}
	st := &wfState{cols: cols, rows: rows, progress: make([]atomic.Int32, rows)}
	st.cond.L = &st.mu
	var wg sync.WaitGroup
	var c caught
	wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		go func() {
			defer func() {
				w.gate.Release()
				wg.Done()
			}()
			defer c.catch(st.abort)
			st.work(mb, col)
		}()
	}
	func() {
		defer c.catch(st.abort)
		st.work(mb, col)
	}()
	wg.Wait()
	c.rethrow()
	return !st.aborted.Load()
}

// work claims rows in increasing order and walks each left-to-right.
func (st *wfState) work(mb func(x, y int) bool, col *obs.Collector) {
	for {
		r := int(st.nextRow.Add(1)) - 1
		if r >= st.rows || st.aborted.Load() {
			return
		}
		for x := 0; x < st.cols; x++ {
			if r > 0 {
				// Top-right dependency: (x+1, r-1) done, i.e. the row above
				// has completed at least x+2 macroblocks (clamped at the
				// right edge, where the dependency falls off the grid).
				need := x + 2
				if need > st.cols {
					need = st.cols
				}
				if !st.waitAbove(r, need, col) {
					return
				}
			}
			if !mb(x, r) {
				st.abort()
				return
			}
			st.progress[r].Store(int32(x + 1))
			if st.waiters.Load() > 0 {
				st.wake()
			}
		}
	}
}

// waitAbove blocks until progress[r-1] >= need or the front aborts,
// returning false on abort. It spins briefly (the common case — rows stay
// staggered by a couple of macroblocks) and then parks on the Cond.
func (st *wfState) waitAbove(r, need int, col *obs.Collector) bool {
	p := &st.progress[r-1]
	if int(p.Load()) >= need {
		return true
	}
	for i := 0; i < wfSpin; i++ {
		if int(p.Load()) >= need {
			return true
		}
		if st.aborted.Load() {
			return false
		}
	}
	var t0 time.Time
	if col != nil {
		//hdvlint:allow determinism -- collector timing only; the duration feeds metrics, never the bitstream
		t0 = time.Now()
	}
	st.mu.Lock()
	st.waiters.Add(1)
	for int(p.Load()) < need && !st.aborted.Load() {
		st.cond.Wait()
	}
	st.waiters.Add(-1)
	st.mu.Unlock()
	if col != nil {
		//hdvlint:allow determinism -- collector timing only; the duration feeds metrics, never the bitstream
		col.ObserveWavefrontWait(time.Since(t0))
	}
	return !st.aborted.Load()
}

// wake broadcasts to parked waiters. The empty critical section orders
// the broadcast after any waiter that registered itself but has not yet
// released the lock in Wait, closing the lost-wakeup window.
func (st *wfState) wake() {
	st.mu.Lock()
	st.mu.Unlock() //nolint:staticcheck // empty section is the handoff barrier
	st.cond.Broadcast()
}

func (st *wfState) abort() {
	st.aborted.Store(true)
	st.wake()
}
