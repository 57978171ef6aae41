package seqgen

import (
	"bytes"
	"math/rand"
	"testing"

	"hdvideobench/internal/frame"
)

// TestSpanRendererMatchesPointwise is the differential half of the
// bit-identity contract: at sizes and frame indices nobody hand-picked,
// every plane the span renderer writes equals the pointwise reference.
// The fixed sizes cover a width that does not divide 1920, one above
// 1920 (virtual columns repeat), sizes that are not multiples of 16 and
// a two-pixel sliver; the rest are drawn from a seeded generator. One
// Generator per size renders every sequence index, so state it carries
// from frame to frame would show up as a mismatch.
func TestSpanRendererMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	sizes := [][2]int{{2, 2}, {100, 52}, {1000, 38}, {2048, 24}, {722, 90}}
	for len(sizes) < 14 {
		sizes = append(sizes, [2]int{2 + 2*rng.Intn(300), 2 + 2*rng.Intn(120)})
	}
	for _, s := range Extended {
		for _, sz := range sizes {
			g := &Generator{Seq: s, Width: sz[0], Height: sz[1]}
			got, want := frame.New(sz[0], sz[1]), frame.New(sz[0], sz[1])
			for _, idx := range []int{0, rng.Intn(40), 300 + rng.Intn(701), rng.Intn(1001)} {
				g.FrameInto(got, idx)
				referenceFrameInto(s, want, idx)
				for _, p := range []struct {
					name   string
					a, b   []byte
					stride int
				}{{"Y", got.Y, want.Y, got.YStride}, {"Cb", got.Cb, want.Cb, got.CStride}, {"Cr", got.Cr, want.Cr, got.CStride}} {
					if i := firstDiff(p.a, p.b); i >= 0 {
						t.Fatalf("%v %dx%d frame %d: %s differs at row %d col %d: got %d, want %d",
							s, sz[0], sz[1], idx, p.name, i/p.stride, i%p.stride, p.a[i], p.b[i])
					}
				}
				if got.PTS != want.PTS {
					t.Fatalf("%v frame %d: PTS %d, want %d", s, idx, got.PTS, want.PTS)
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestFrameIntoDoesNotAllocate: once a generator has rendered a frame
// (of each shot, for scene_cut), its column maps and row scratch are in
// place and further frames allocate nothing — sport_pan included, whose
// column maps are rebuilt for every frame's pan offset.
func TestFrameIntoDoesNotAllocate(t *testing.T) {
	for _, s := range Extended {
		g := New(s, 176, 144)
		f := frame.New(176, 144)
		g.FrameInto(f, 0)
		g.FrameInto(f, SceneCutPeriod)
		idx := 0
		if n := testing.AllocsPerRun(5, func() {
			idx += 9 // crosses scene_cut's shots
			g.FrameInto(f, idx)
		}); n != 0 {
			t.Errorf("%v: FrameInto allocates %v times per frame on a warmed generator", s, n)
		}
	}
}

// BenchmarkFrameInto is the renderer's table: every sequence at the
// paper's three resolutions, in ns per luma pixel.
func BenchmarkFrameInto(b *testing.B) {
	for _, s := range Extended {
		for _, res := range []struct {
			name string
			w, h int
		}{{"576p", 720, 576}, {"720p", 1280, 720}, {"1088p", 1920, 1088}} {
			b.Run(s.String()+"/"+res.name, func(b *testing.B) {
				g := New(s, res.w, res.h)
				f := frame.New(res.w, res.h)
				g.FrameInto(f, 0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g.FrameInto(f, i)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.w*res.h), "ns/pixel")
			})
		}
	}
}
