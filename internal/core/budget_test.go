package core

import (
	"bytes"
	"fmt"
	"testing"

	"hdvideobench/internal/codec/codectest"
	"hdvideobench/internal/container"
)

// TestBudgetTranscode: the decode and encode stages of one transcode
// share one worker budget. Both stages run workers+1 chunks of a probe
// codec that offers more slices and rows than there are workers; with a
// budget per stage the two pools alone would put 2×workers goroutines
// inside the codec.
func TestBudgetTranscode(t *testing.T) {
	const gop = 3
	for _, workers := range []int{2, 3, 4} {
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
