package interp

import (
	"math/rand"
	"testing"

	"hdvideobench/internal/frame"
	"hdvideobench/internal/kernel"
)

// randomRef builds a padded, border-extended reference frame with random
// visible content.
func randomRef(t *testing.T, w, h int, seed int64) *frame.Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := frame.NewPadded(w, h, 32)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			f.SetLuma(r, c, byte(rng.Intn(256)))
		}
	}
	f.ExtendBorders()
	return f
}

// TestHalfPlanesBilinBitExact compares every half-pel position of the
// bilinear planes against per-block HalfPel over the MV-reachable region.
func TestHalfPlanesBilinBitExact(t *testing.T) {
	for _, k := range []kernel.Set{kernel.Scalar, kernel.SWAR} {
		f := randomRef(t, 64, 48, 11)
		BuildHalfPelBilin(f, k)
		var want [256]byte
		margin := f.Pad - 8
		for fy := 0; fy <= 1; fy++ {
			for fx := 0; fx <= 1; fx++ {
				plane := BilinPlaneFor(f, fx, fy)
				for _, pos := range [][2]int{
					{-margin - 1, -margin - 1}, {0, 0}, {17, 9},
					{f.Width - 16 + margin, f.Height - 16 + margin},
				} {
					so := f.YOrigin + pos[1]*f.YStride + pos[0]
					HalfPel(want[:], 16, f.Y[so:], f.YStride, 16, 16, fx, fy, k)
					for r := 0; r < 16; r++ {
						for c := 0; c < 16; c++ {
							got := plane[so+r*f.YStride+c]
							if got != want[r*16+c] {
								t.Fatalf("k=%v frac=(%d,%d) pos=%v sample (%d,%d): plane %d, block %d",
									k, fx, fy, pos, r, c, got, want[r*16+c])
							}
						}
					}
				}
			}
		}
	}
}

// TestHalfPlanes6BitExact compares all 16 quarter-pel positions derived
// from the 6-tap planes (LumaPlanes) against per-block QPel.Luma.
func TestHalfPlanes6BitExact(t *testing.T) {
	for _, k := range []kernel.Set{kernel.Scalar, kernel.SWAR} {
		f := randomRef(t, 64, 48, 12)
		BuildHalfPel6(f, k)
		var q QPel
		var want, got [256]byte
		margin := f.Pad - 8
		for fy := 0; fy < 4; fy++ {
			for fx := 0; fx < 4; fx++ {
				for _, pos := range [][2]int{
					{-margin - 1, -margin - 1}, {0, 0}, {13, 21},
					{f.Width - 16 + margin, f.Height - 16 + margin},
				} {
					for _, dims := range [][2]int{{16, 16}, {8, 8}, {16, 8}} {
						w, h := dims[0], dims[1]
						so := f.YOrigin + pos[1]*f.YStride + pos[0]
						q.Luma(want[:], 16, f.Y, so, f.YStride, w, h, fx, fy, k)
						LumaPlanes(got[:], 16, f.Y, f.Hpel6, so, f.YStride, w, h, fx, fy, k)
						for r := 0; r < h; r++ {
							for c := 0; c < w; c++ {
								if got[r*16+c] != want[r*16+c] {
									t.Fatalf("k=%v frac=(%d,%d) pos=%v %dx%d sample (%d,%d): planes %d, block %d",
										k, fx, fy, pos, w, h, r, c, got[r*16+c], want[r*16+c])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestBuildHalfPelIdempotent pins the build-once contract.
func TestBuildHalfPelIdempotent(t *testing.T) {
	f := randomRef(t, 32, 32, 13)
	BuildHalfPelBilin(f, kernel.Scalar)
	BuildHalfPel6(f, kernel.Scalar)
	b, s := f.HpelBilin, f.Hpel6
	BuildHalfPelBilin(f, kernel.SWAR)
	BuildHalfPel6(f, kernel.SWAR)
	if f.HpelBilin != b || f.Hpel6 != s {
		t.Fatal("rebuild replaced existing planes")
	}
}

// TestBuildHalfPelReusesSpare: after Recycle a build refills the same
// plane memory, allocating nothing (the 6-tap row ring included), with
// what a build into fresh planes produces over the rows and columns the
// builders fill.
func TestBuildHalfPelReusesSpare(t *testing.T) {
	for _, b := range []struct {
		name   string
		build  func(*frame.Frame, kernel.Set)
		planes func(*frame.Frame) *frame.HalfPlanes
	}{
		{"bilin", BuildHalfPelBilin, func(f *frame.Frame) *frame.HalfPlanes { return f.HpelBilin }},
		{"6-tap", BuildHalfPel6, func(f *frame.Frame) *frame.HalfPlanes { return f.Hpel6 }},
	} {
		f := randomRef(t, 64, 48, 17)
		b.build(f, kernel.SWAR)
		hp := b.planes(f)
		f.Recycle()
		if b.planes(f) != nil || f.Spare != hp {
			t.Fatalf("%s: Recycle left planes %p, spare %p; want nil and %p", b.name, b.planes(f), f.Spare, hp)
		}
		f.CopyFrom(randomRef(t, 64, 48, 18)) // new samples, stale planes
		f.ExtendBorders()
		if n := testing.AllocsPerRun(3, func() { f.Recycle(); b.build(f, kernel.SWAR) }); n != 0 {
			t.Errorf("%s: %v allocations per rebuild into spare planes", b.name, n)
		}
		if b.planes(f) != hp || f.Spare != nil {
			t.Fatalf("%s: rebuild did not fill the spare planes", b.name)
		}
		fresh := f.Clone()
		b.build(fresh, kernel.SWAR)
		want := b.planes(fresh)
		stride, rows := f.YStride, len(f.Y)/f.YStride
		for r := 2; r <= rows-4; r++ {
			for c := 2; c <= stride-4; c++ {
				p := r*stride + c
				if hp.H[p] != want.H[p] || hp.V[p] != want.V[p] || hp.HV[p] != want.HV[p] {
					t.Fatalf("%s: rebuilt planes differ from fresh ones at row %d col %d", b.name, r, c)
				}
			}
		}
	}
}
