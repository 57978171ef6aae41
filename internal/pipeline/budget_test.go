package pipeline

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderedPoolAbortWhileParkedInAcquire: every token is out, so the
// pool's workers can only park in Acquire with their items. A cancel must
// drop those items without running them, hand back nothing it never
// took, and let the workers exit once the producer closes the pool.
func TestOrderedPoolAbortWhileParkedInAcquire(t *testing.T) {
	before := runtime.NumGoroutine()
	const workers = 2
	g := NewSliceGate(workers)
	for i := 0; i < workers; i++ {
		g.Acquire(context.Background()) // some other stage of the call is using the whole budget
	}
	var ran, dropped atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	p := NewOrderedPool(ctx, g, workers,
		func(i int) (int, error) { ran.Add(1); return i, nil },
		func(int) { dropped.Add(1) })
	for i := 0; i < workers; i++ {
		if err := p.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
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

// TestAcquireAbort pins Acquire's contract at every budget, the
// one-worker gate included: a cancelled context wins even when a token
// is free, and a failed Acquire holds nothing.
func TestAcquireAbort(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := NewSliceGate(workers)
		ctx, cancel := context.WithCancel(context.Background())
		if !g.Acquire(ctx) {
			t.Fatalf("workers=%d: Acquire failed with tokens free", workers)
		}
		cancel()
		if g.Acquire(ctx) {
			t.Fatalf("workers=%d: Acquire succeeded after abort", workers)
		}
		g.Release()
		if got := len(g.tokens); got != workers {
			t.Fatalf("workers=%d: %d tokens banked, want %d", workers, got, workers)
		}
	}
}
