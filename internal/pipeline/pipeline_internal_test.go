package pipeline

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderedPoolOrderAndWindow drives the windowed pool with out-of-order
// completion pressure (tiny window, many items) and checks results come
// back in submission order while admitted-but-unconsumed items never
// exceed the window. The workers are gated shut while the producer
// sprints, so only Submit's backpressure — not worker scarcity — can
// hold the admission count down; a pool without the slots channel fails
// the window assertion immediately.
func TestOrderedPoolOrderAndWindow(t *testing.T) {
	const (
		items   = 64
		window  = 3
		workers = 2
	)
	gate := make(chan struct{})
	p := NewOrderedPool(context.Background(), NewSliceGate(workers), window, func(i int) (int, error) {
		<-gate
		return i * i, nil
	}, nil)

	var admitted atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < items; i++ {
			if err := p.Submit(i); err != nil {
				done <- err
				return
			}
			admitted.Add(1)
		}
		p.Close()
		done <- nil
	}()

	// With the workers gated and nothing consumed, the producer must
	// stall at the window. Poll until it stops making progress.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := admitted.Load()
		time.Sleep(20 * time.Millisecond)
		if admitted.Load() == n && n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("producer never settled")
		}
	}
	if got := admitted.Load(); got != window {
		t.Fatalf("admitted %d items with workers gated and nothing consumed, want window %d", got, window)
	}
	close(gate)

	for i := 0; i < items; i++ {
		got, err := p.Next()
		if err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if got != i*i {
			t.Fatalf("Next(%d) = %d, want %d (out of order)", i, got, i*i)
		}
		// The producer can never run more than the window ahead of
		// consumption, even while results are flowing.
		if a := admitted.Load(); a > int64(i+1+window) {
			t.Fatalf("after consuming %d results, %d items admitted (> window %d ahead)", i+1, a, window)
		}
	}
	if _, err := p.Next(); err != io.EOF {
		t.Fatalf("Next after drain: %v, want io.EOF", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Submit: %v", err)
	}
}

// TestOrderedPoolError checks a failing item surfaces its error from Next
// at the item's ordinal position.
func TestOrderedPoolError(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	p := NewOrderedPool(ctx, NewSliceGate(2), 4, func(i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	}, nil)
	go func() {
		defer p.Close()
		for i := 0; i < 5; i++ {
			if err := p.Submit(i); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 2; i++ {
		if _, err := p.Next(); err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
	}
	if _, err := p.Next(); !errors.Is(err, boom) {
		t.Fatalf("Next(2): %v, want boom", err)
	}
	cancel() // producer goroutine owns Close and runs it on its way out
}

// TestOrderedPoolAbortUnblocksSubmit checks a cancel releases a producer
// blocked on a full window and accounts dropped items via the drop hook.
func TestOrderedPoolAbortUnblocksSubmit(t *testing.T) {
	var dropped atomic.Int64
	block := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	p := NewOrderedPool(ctx, NewSliceGate(1), 1, func(i int) (int, error) {
		<-block
		return i, nil
	}, func(int) { dropped.Add(1) })

	submitErr := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 10 && err == nil; i++ {
			err = p.Submit(i)
		}
		p.Close()
		submitErr <- err
	}()

	// Give the producer time to fill the window and block, then abort.
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-submitErr; err != ErrAborted {
		t.Fatalf("Submit after abort: %v, want ErrAborted", err)
	}
	close(block)
	if _, err := p.Next(); err != ErrAborted {
		t.Fatalf("Next after abort: %v, want ErrAborted", err)
	}
	if dropped.Load() == 0 {
		t.Fatal("drop hook never ran for discarded items")
	}
}
