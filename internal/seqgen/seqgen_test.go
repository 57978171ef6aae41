package seqgen

import (
	"testing"

	"hdvideobench/internal/frame"
)

func TestParse(t *testing.T) {
	for _, s := range All {
		got, err := Parse(s.String())
		if err != nil || got != s {
			t.Errorf("Parse(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := Parse("nope"); err == nil {
		t.Error("Parse must reject unknown names")
	}
}

func TestDeterminism(t *testing.T) {
	for _, s := range All {
		g := New(s, 176, 144)
		a := g.Frame(3)
		b := g.Frame(3)
		for i := range a.Y {
			if a.Y[i] != b.Y[i] {
				t.Fatalf("%v: luma differs at %d", s, i)
			}
		}
		for i := range a.Cb {
			if a.Cb[i] != b.Cb[i] || a.Cr[i] != b.Cr[i] {
				t.Fatalf("%v: chroma differs at %d", s, i)
			}
		}
	}
}

func TestFramesEvolve(t *testing.T) {
	for _, s := range All {
		g := New(s, 176, 144)
		a := g.Frame(0)
		b := g.Frame(10)
		if planeSAD(a, b) == 0 {
			t.Errorf("%v: frames 0 and 10 identical — no motion", s)
		}
	}
}

func TestSequencesDiffer(t *testing.T) {
	frames := map[Sequence]*frame.Frame{}
	for _, s := range All {
		frames[s] = New(s, 176, 144).Frame(0)
	}
	for i, a := range All {
		for _, b := range All[i+1:] {
			if planeSAD(frames[a], frames[b]) < 100000 {
				t.Errorf("%v and %v are nearly identical", a, b)
			}
		}
	}
}

// TestTemporalCharacter verifies the property each sequence was selected
// for: riverbed must be the hardest to predict temporally and rush hour
// among the easiest (per-pixel temporal difference).
func TestTemporalCharacter(t *testing.T) {
	diff := map[Sequence]int{}
	for _, s := range All {
		g := New(s, 176, 144)
		a := g.Frame(4)
		b := g.Frame(5)
		diff[s] = planeSAD(a, b) / (176 * 144)
	}
	if diff[Riverbed] <= diff[RushHour] {
		t.Errorf("riverbed temporal diff %d must exceed rush_hour %d",
			diff[Riverbed], diff[RushHour])
	}
	if diff[Riverbed] <= diff[BlueSky] {
		t.Errorf("riverbed temporal diff %d must exceed blue_sky %d",
			diff[Riverbed], diff[BlueSky])
	}
	if diff[RushHour] > 40 {
		t.Errorf("rush_hour temporal diff %d too large for a slow scene", diff[RushHour])
	}
}

// TestSpatialDetail: blue sky must contain strong high-frequency content
// (tree foliage), measured as mean absolute horizontal gradient.
func TestSpatialDetail(t *testing.T) {
	grad := map[Sequence]int{}
	for _, s := range All {
		f := New(s, 176, 144).Frame(0)
		sum := 0
		for r := 0; r < f.Height; r++ {
			for c := 0; c < f.Width-1; c++ {
				d := int(f.LumaAt(r, c)) - int(f.LumaAt(r, c+1))
				if d < 0 {
					d = -d
				}
				sum += d
			}
		}
		grad[s] = sum / (f.Width * f.Height)
	}
	if grad[BlueSky] < 2 {
		t.Errorf("blue_sky gradient %d too low — missing foliage detail", grad[BlueSky])
	}
	if grad[Riverbed] < grad[RushHour] {
		t.Errorf("riverbed gradient %d should exceed rush_hour %d",
			grad[Riverbed], grad[RushHour])
	}
}

func TestResolutions(t *testing.T) {
	// The paper's three resolutions all render without panic and set PTS.
	for _, res := range [][2]int{{720, 576}, {1280, 720}, {1920, 1088}} {
		f := New(BlueSky, res[0], res[1]).Frame(2)
		if f.Width != res[0] || f.Height != res[1] {
			t.Fatalf("bad size %dx%d", f.Width, f.Height)
		}
		if f.PTS != 2 {
			t.Fatalf("PTS = %d", f.PTS)
		}
	}
}

func TestFrameIntoMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	g := New(BlueSky, 176, 144)
	g.FrameInto(frame.New(352, 288), 0)
}

func TestGenerate(t *testing.T) {
	fs := New(RushHour, 176, 144).Generate(5)
	if len(fs) != 5 {
		t.Fatalf("got %d frames", len(fs))
	}
	for i, f := range fs {
		if f.PTS != i {
			t.Fatalf("frame %d has PTS %d", i, f.PTS)
		}
	}
}

// TestChromaVaries ensures generators actually produce colour content
// (PSNR work below depends on non-trivial chroma).
func TestChromaVaries(t *testing.T) {
	for _, s := range []Sequence{BlueSky, PedestrianArea, RushHour} {
		f := New(s, 176, 144).Frame(0)
		minV, maxV := byte(255), byte(0)
		for r := 0; r < f.ChromaHeight(); r++ {
			for c := 0; c < f.ChromaWidth(); c++ {
				v := f.Cb[f.COrigin+r*f.CStride+c]
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
			}
		}
		if maxV == minV {
			t.Errorf("%v: Cb plane is constant", s)
		}
	}
}

func planeSAD(a, b *frame.Frame) int {
	sum := 0
	for r := 0; r < a.Height; r++ {
		for c := 0; c < a.Width; c++ {
			d := int(a.LumaAt(r, c)) - int(b.LumaAt(r, c))
			if d < 0 {
				d = -d
			}
			sum += d
		}
	}
	return sum
}
