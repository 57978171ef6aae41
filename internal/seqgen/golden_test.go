package seqgen

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"hdvideobench/internal/frame"
)

// planeDigest is the SHA-256 of the visible samples of f in the order
// Y‖Cb‖Cr, row by row (so stride and padding do not enter the digest).
func planeDigest(f *frame.Frame) string {
	h := sha256.New()
	for r := 0; r < f.Height; r++ {
		o := f.YOrigin + r*f.YStride
		h.Write(f.Y[o : o+f.Width])
	}
	cw, ch := f.ChromaWidth(), f.ChromaHeight()
	for _, p := range [][]byte{f.Cb, f.Cr} {
		for r := 0; r < ch; r++ {
			o := f.COrigin + r*f.CStride
			h.Write(p[o : o+cw])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenPlanes pins every sample the generators produce: the digests
// in testdata/golden_planes.txt were recorded from the pointwise renderer
// at commit d709781 (the parent of the span renderer) and are never
// regenerated by a speed-up — a renderer change that moves one of them
// changed a picture, and with it every PSNR, bitrate and golden stream
// digest downstream. Frame indices straddle the scene_cut boundary
// (15/16/17) and reach past blue_sky's cosT sign change (400).
func TestGoldenPlanes(t *testing.T) {
	file, err := os.Open("testdata/golden_planes.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	sizes := [][2]int{{96, 80}, {176, 144}, {720, 576}, {1280, 720}}
	indices := []int{0, 1, 7, 15, 16, 17, 100, 400}
	checked := 0
	for _, s := range Extended {
		for _, sz := range sizes {
			g := New(s, sz[0], sz[1])
			f := frame.New(sz[0], sz[1])
			for _, idx := range indices {
				key := fmt.Sprintf("%v %dx%d %d", s, sz[0], sz[1], idx)
				g.FrameInto(f, idx)
				if got := planeDigest(f); got != want[key] {
					t.Errorf("%s: digest %s, want %q", key, got, want[key])
				}
				checked++
			}
		}
	}
	if checked != len(want) {
		t.Errorf("checked %d digests, golden file holds %d", checked, len(want))
	}
}
