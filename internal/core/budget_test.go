package core

import (
	"bytes"
	"fmt"
	"testing"

	"hdvideobench/internal/codec/codectest"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
)

// budgetWorkers are the worker counts the budget invariant is asserted
// at, here and in internal/stream.
var budgetWorkers = []int{2, 3, 4}

// TestBudgetBatch: the batch entry points over workers+1 chunks of the
// probe codec (the real frame drivers over slices that code nothing),
// which offers more slices and rows than there are workers, never have
// more than `workers` goroutines doing codec work — not while every
// chunk worker is busy, and not in the tail where the idle ones lend
// their tokens to the last chunk's frames.
func TestBudgetBatch(t *testing.T) {
	const gop = 3
	for _, workers := range budgetWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			enc := &codectest.Probe{Slices: workers + 1, Rows: 4, Cols: 4, GOP: gop}
			frames := make([]*frame.Frame, (workers+1)*gop)
			for i := range frames {
				frames[i] = enc.NewFrame()
			}
			pkts, _, err := encodeFrames(enc.NewEncoder, gop, frames, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkts) != len(frames) {
				t.Fatalf("encoded %d of %d frames", len(pkts), len(frames))
			}
			if got := enc.Peak(); got > workers {
				t.Errorf("encode: %d goroutines inside the codec at once, budget %d", got, workers)
			}

			dec := &codectest.Probe{Slices: workers + 1, Rows: 4, Cols: 4}
			out, err := decodePackets(dec.NewDecoder, pkts, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range out {
				if f.PTS != i {
					t.Fatalf("decoded frame %d has PTS %d", i, f.PTS)
				}
			}
			if len(out) != len(frames) {
				t.Fatalf("decoded %d of %d frames", len(out), len(frames))
			}
			if got := dec.Peak(); got > workers {
				t.Errorf("decode: %d goroutines inside the codec at once, budget %d", got, workers)
			}
			t.Logf("peak encode %d, decode %d of %d", enc.Peak(), dec.Peak(), workers)
		})
	}
}

// TestBudgetTranscode: the decode and encode stages of one transcode
// share one worker budget. Both stages run workers+1 chunks of a probe
// codec that offers more slices and rows than there are workers; with a
// budget per stage the two pools alone would put 2×workers goroutines
// inside the codec.
func TestBudgetTranscode(t *testing.T) {
	const gop = 3
	for _, workers := range budgetWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			probe := &codectest.Probe{Slices: workers + 1, Rows: 4, Cols: 4, GOP: gop}
			frames := (workers + 1) * gop
			var in bytes.Buffer
			hdr := probe.Header()
			hdr.Frames = frames
			cw, err := container.NewWriter(&in, hdr)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < frames; i++ {
				typ := container.FrameP
				if i%gop == 0 {
					typ = container.FrameI
				}
				if err := cw.WritePacket(probe.Packet(typ, i)); err != nil {
					t.Fatal(err)
				}
			}
			sr, err := container.NewStreamReader(&in)
			if err != nil {
				t.Fatal(err)
			}

			var out bytes.Buffer
			stats, err := transcode(sr, &out, probe.NewDecoder, probe.NewEncoder, gop, workers, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Frames != frames {
				t.Fatalf("transcoded %d of %d frames", stats.Frames, frames)
			}
			if got := probe.Peak(); got > workers {
				t.Errorf("%d goroutines inside the codec at once, budget %d", got, workers)
			}
		})
	}
}
