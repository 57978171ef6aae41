package hdvideobench

import (
	"fmt"
	"testing"

	"hdvideobench/internal/codec"
)

// reorderDepth is the most frames a decoder of pkts (coding order) holds
// back at once while it waits for an earlier display index.
func reorderDepth(pkts []Packet) int {
	next, depth := 0, 0
	waiting := map[int]bool{}
	for _, p := range pkts {
		waiting[p.DisplayIndex] = true
		for waiting[next] {
			delete(waiting, next)
			next++
		}
		depth = max(depth, len(waiting))
	}
	return depth
}

// TestFrameDriverReorderDepthOverMatrix pins the claim behind
// codec.MaxReorderDepth, the bound past which the decoder driver refuses
// packets: no stream of the golden matrix — nor any GOP shape the
// encoders offer — has more than BFrames+1 frames waiting for display,
// far below the bound, and all of them decode.
func TestFrameDriverReorderDepthOverMatrix(t *testing.T) {
	type shape struct {
		w, h, frames, bframes, period int
	}
	shapes := []shape{{720, 576, 5, 2, 0}, {1280, 720, 5, 2, 0}} // the matrix of TestEncodeEquivalenceMatrix
	for b := 0; b <= 4; b++ {
		for _, period := range []int{0, 4, 7} {
			shapes = append(shapes, shape{96, 80, 16, b, period})
		}
	}
	for _, c := range []Codec{MPEG2, MPEG4, H264} {
		for _, s := range shapes {
			t.Run(fmt.Sprintf("%v/%dx%d/b=%d/period=%d", c, s.w, s.h, s.bframes, s.period), func(t *testing.T) {
				opts := EncoderOptions{Width: s.w, Height: s.h, SIMD: true, BFrames: s.bframes, IntraPeriod: s.period}
				if s.bframes == 0 {
					opts.BFrames = -1
				}
				enc, err := NewEncoder(c, opts)
				if err != nil {
					t.Fatal(err)
				}
				pkts, err := EncodeFrames(enc, NewSequence(PedestrianArea, s.w, s.h).Generate(s.frames))
				if err != nil {
					t.Fatal(err)
				}
				if d := reorderDepth(pkts); d > s.bframes+1 || d >= codec.MaxReorderDepth {
					t.Errorf("%d frames wait for display at once; BFrames+1 = %d, the decoder refuses at %d",
						d, s.bframes+1, codec.MaxReorderDepth)
				}
				dec, err := NewDecoder(enc.Header(), true)
				if err != nil {
					t.Fatal(err)
				}
				if fs, err := DecodePackets(dec, pkts); err != nil || len(fs) != s.frames {
					t.Errorf("decoded %d of %d frames: %v", len(fs), s.frames, err)
				}
			})
		}
	}
}
