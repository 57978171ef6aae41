package pipeline

import (
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"hdvideobench/internal/container"
)

func TestChunkSpans(t *testing.T) {
	cases := []struct {
		n, gop int
		want   []span
	}{
		{0, 4, []span{{0, 0}}},
		{10, 0, []span{{0, 10}}},  // no intra period: one chunk
		{10, 12, []span{{0, 10}}}, // gop longer than input
		{12, 4, []span{{0, 4}, {4, 8}, {8, 12}}},
		{10, 4, []span{{0, 4}, {4, 8}, {8, 10}}}, // ragged tail
		{10, 3, []span{{0, 3}, {3, 6}, {6, 9}, {9, 10}}},
	}
	for _, c := range cases {
		got := chunkSpans(c.n, c.gop)
		if len(got) != len(c.want) {
			t.Errorf("chunkSpans(%d,%d) = %v, want %v", c.n, c.gop, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("chunkSpans(%d,%d)[%d] = %v, want %v", c.n, c.gop, i, got[i], c.want[i])
			}
		}
	}
}

// pkt builds a minimal packet for segmentation tests.
func pkt(t container.FrameType, display int) container.Packet {
	return container.Packet{Type: t, DisplayIndex: display}
}

func TestSegmentsClosedGOP(t *testing.T) {
	// The scheduler's shape for IntraPeriod=3, BFrames=2: every frame
	// between refreshes becomes a trailing P, giving I0 P1 P2 | I3 P4 P5.
	pkts := []container.Packet{
		pkt(container.FrameI, 0), pkt(container.FrameP, 1), pkt(container.FrameP, 2),
		pkt(container.FrameI, 3), pkt(container.FrameP, 4), pkt(container.FrameP, 5),
	}
	got := segments(pkts)
	want := []span{{0, 3}, {3, 6}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("segments = %v, want %v", got, want)
	}
}

func TestSegmentsWithBFrames(t *testing.T) {
	// IntraPeriod=6, BFrames=2 closed-GOP coding order:
	// I0 P3 B1 B2 P4 P5 | I6 P9 B7 B8.
	pkts := []container.Packet{
		pkt(container.FrameI, 0), pkt(container.FrameP, 3), pkt(container.FrameB, 1),
		pkt(container.FrameB, 2), pkt(container.FrameP, 4), pkt(container.FrameP, 5),
		pkt(container.FrameI, 6), pkt(container.FrameP, 9), pkt(container.FrameB, 7),
		pkt(container.FrameB, 8),
	}
	got := segments(pkts)
	want := []span{{0, 6}, {6, 10}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("segments = %v, want %v", got, want)
	}
}

func TestSegmentsRejectsOpenGOP(t *testing.T) {
	// Open-GOP shape (the seed's old scheduler): B frames coded after the
	// mid-stream I display *before* it, so the I is not a safe split point.
	// Coding order I0 P3 B1 B2 I6 B4 B5 ...
	pkts := []container.Packet{
		pkt(container.FrameI, 0), pkt(container.FrameP, 3), pkt(container.FrameB, 1),
		pkt(container.FrameB, 2), pkt(container.FrameI, 6), pkt(container.FrameB, 4),
		pkt(container.FrameB, 5), pkt(container.FrameP, 7),
	}
	got := segments(pkts)
	if len(got) != 1 || got[0] != (span{0, 8}) {
		t.Fatalf("segments = %v, want one merged span (open GOP must not split)", got)
	}
}

func TestRunOrderedPreservesOrderAndErrors(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		got, err := runOrdered(NewSliceGate(workers), 20, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}

	boom := errors.New("boom")
	_, err := runOrdered(NewSliceGate(4), 20, func(i int) (int, error) {
		if i >= 7 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

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
	p := NewOrderedPool(NewSliceGate(workers), window, func(i int) (int, error) {
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
	p := NewOrderedPool(NewSliceGate(2), 4, func(i int) (int, error) {
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
	p.Abort() // producer goroutine owns Close and runs it on its way out
}

// TestOrderedPoolAbortUnblocksSubmit checks Abort releases a producer
// blocked on a full window and accounts dropped items via the drop hook.
func TestOrderedPoolAbortUnblocksSubmit(t *testing.T) {
	var dropped atomic.Int64
	block := make(chan struct{})
	p := NewOrderedPool(NewSliceGate(1), 1, func(i int) (int, error) {
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
	p.Abort()
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
