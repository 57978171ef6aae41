package pipeline

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderedPoolAbortWhileParkedInAcquire: every token is out, so the
// pool's workers can only park in Acquire with their items. Abort must
// drop those items without running them, hand back nothing it never
// took, and let the workers exit once the producer closes the pool.
func TestOrderedPoolAbortWhileParkedInAcquire(t *testing.T) {
	before := runtime.NumGoroutine()
	const workers = 2
	g := NewSliceGate(workers)
	for i := 0; i < workers; i++ {
		g.Acquire(nil) // some other stage of the call is using the whole budget
	}
	var ran, dropped atomic.Int64
	p := NewOrderedPool(g, workers,
		func(i int) (int, error) { ran.Add(1); return i, nil },
		func(int) { dropped.Add(1) })
	for i := 0; i < workers; i++ {
		if err := p.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	p.Abort()
	if err := p.Submit(workers); err != ErrAborted {
		t.Fatalf("Submit after Abort: %v, want ErrAborted", err)
	}
	p.Close()
	if _, err := p.Next(); err != ErrAborted {
		t.Fatalf("Next after Abort: %v, want ErrAborted", err)
	}
	for i := 0; i < workers; i++ {
		g.Release()
	}
	// The workers exit on their own once the queue is closed and drained.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before || dropped.Load() < workers+1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running (started with %d), %d items dropped",
				runtime.NumGoroutine(), before, dropped.Load())
		}
		runtime.Gosched()
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d items ran after Abort with no token free", n)
	}
	if got := dropped.Load(); got != workers+1 {
		t.Errorf("dropped %d items, want %d", got, workers+1)
	}
	if got := len(g.tokens); got != workers {
		t.Errorf("%d of %d tokens back in the bank", got, workers)
	}
}

// TestAcquireAbort pins Acquire's contract: a closed abort channel wins
// even when a token is free, and a failed Acquire holds nothing.
func TestAcquireAbort(t *testing.T) {
	g := NewSliceGate(2)
	abort := make(chan struct{})
	if !g.Acquire(abort) {
		t.Fatal("Acquire failed with tokens free")
	}
	close(abort)
	if g.Acquire(abort) {
		t.Fatal("Acquire succeeded after abort")
	}
	g.Release()
	if got := len(g.tokens); got != 2 {
		t.Fatalf("%d tokens banked, want 2", got)
	}
	if one := NewSliceGate(1); !one.Acquire(abort) {
		t.Fatal("the serial gate banks nothing and must never refuse")
	}
}
