// The GOP index EncodeStream returns: read off the bytes as they are
// written, it must point exactly at the I packets of the container, and
// it must not depend on the schedule that coded them.
package core_test

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"

	"hdvideobench/internal/container"
	"hdvideobench/internal/core"
	"hdvideobench/internal/seqgen"
)

// walkIFrames walks a container and returns the byte offset and display
// index of every I packet in it.
func walkIFrames(t *testing.T, stream []byte) []container.GOPIndexEntry {
	t.Helper()
	sr, err := container.NewStreamReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var is []container.GOPIndexEntry
	for {
		at := sr.BytesRead()
		p, err := sr.Next()
		if err == io.EOF {
			return is
		}
		if err != nil {
			t.Fatal(err)
		}
		if p.Type == container.FrameI {
			is = append(is, container.GOPIndexEntry{Offset: at, Frame: p.DisplayIndex})
		}
	}
}

// TestEncodeStreamGOPIndex encodes a clip whose scene cut falls inside
// an intra period, with and without cut detection, at several worker
// counts. Chunked and serial runs write the same bytes, and the index
// must agree with them: every I packet found by walking the container,
// the cut's included, at every worker count.
func TestEncodeStreamGOPIndex(t *testing.T) {
	const w, h, n, gop = 176, 144, 40, 32
	for _, id := range []core.CodecID{core.MPEG2, core.H264} {
		for _, cut := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/scenecut=%v", id, cut), func(t *testing.T) {
				cfg := streamCfg(w, h, gop)
				cfg.SceneCutIntra = cut
				want := []int{0, gop}
				if cut {
					want = []int{0, seqgen.SceneCutPeriod, gop}
				}
				var first []container.GOPIndexEntry
				for _, workers := range []int{1, 2, 4} {
					var buf bytes.Buffer
					stats, err := core.EncodeStream(&buf, id, cfg, workers, 0, n, frameFeeder(seqgen.SceneCut, w, h, n), nil)
					if err != nil {
						t.Fatal(err)
					}
					is := walkIFrames(t, buf.Bytes())
					if !slices.Equal(stats.GOPs, is) {
						t.Fatalf("workers=%d: index %v, I packets of the container %v", workers, stats.GOPs, is)
					}
					frames := make([]int, len(is))
					for i, e := range is {
						frames[i] = e.Frame
					}
					if !slices.Equal(frames, want) {
						t.Fatalf("workers=%d: GOPs open at frames %v, want %v", workers, frames, want)
					}
					if first == nil {
						first = stats.GOPs
					} else if !slices.Equal(stats.GOPs, first) {
						t.Fatalf("workers=%d: index %v, workers=1 gave %v", workers, stats.GOPs, first)
					}
				}
			})
		}
	}
}

// TestEncodeStreamSingleGOPIndex: with no intra period the stream is one
// GOP, indexed at frame 0 right behind the 20-byte stream header.
func TestEncodeStreamSingleGOPIndex(t *testing.T) {
	const w, h, n = 96, 80, 5
	for _, workers := range []int{1, 4} {
		stats, err := core.EncodeStream(io.Discard, core.MPEG2, streamCfg(w, h, 0), workers, 0, n, frameFeeder(seqgen.BlueSky, w, h, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := []container.GOPIndexEntry{{Offset: 20, Frame: 0}}; !slices.Equal(stats.GOPs, want) {
			t.Fatalf("workers=%d: index %v, want %v", workers, stats.GOPs, want)
		}
	}
}
