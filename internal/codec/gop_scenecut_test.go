package codec

import (
	"reflect"
	"testing"

	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/seqgen"
)

// scheduleTypes pushes frames [0, n) of seq through g and returns the
// coded frame type per display index.
func scheduleTypes(t *testing.T, g *GOPScheduler, seq seqgen.Sequence, n int) map[int]container.FrameType {
	t.Helper()
	gen := seqgen.New(seq, 176, 144)
	types := map[int]container.FrameType{}
	collect := func(entries []GOPEntry) {
		for _, e := range entries {
			if old, dup := types[e.Frame.PTS]; dup {
				t.Fatalf("frame %d scheduled twice (%v then %v)", e.Frame.PTS, old, e.Type)
			}
			types[e.Frame.PTS] = e.Type
		}
	}
	for i := 0; i < n; i++ {
		collect(g.Push(gen.Frame(i)))
	}
	collect(g.Flush())
	if len(types) != n {
		t.Fatalf("scheduled %d frames, want %d", len(types), n)
	}
	return types
}

// TestSceneCutIntraPlacement feeds the scene_cut sequence (hard shot
// alternation every seqgen.SceneCutPeriod frames) to the scheduler with
// adaptive placement on: every shot boundary must open a closed GOP
// with an I frame, and the moderate in-shot motion must not trigger
// spurious I frames anywhere else.
func TestSceneCutIntraPlacement(t *testing.T) {
	const n = 3*seqgen.SceneCutPeriod + 4
	g := &GOPScheduler{BFrames: 2, SceneCut: true}
	types := scheduleTypes(t, g, seqgen.SceneCut, n)
	for i := 0; i < n; i++ {
		boundary := i%seqgen.SceneCutPeriod == 0
		if boundary && types[i] != container.FrameI {
			t.Errorf("frame %d: shot boundary coded as %v, want I", i, types[i])
		}
		if !boundary && types[i] == container.FrameI {
			t.Errorf("frame %d: spurious I frame inside a shot", i)
		}
	}
}

// TestSceneCutOffKeepsStructure pins the default: with SceneCut off the
// same input keeps the paper's first-frame-only-intra GOP structure.
func TestSceneCutOffKeepsStructure(t *testing.T) {
	const n = 2*seqgen.SceneCutPeriod + 1
	g := &GOPScheduler{BFrames: 2}
	types := scheduleTypes(t, g, seqgen.SceneCut, n)
	for i := 0; i < n; i++ {
		if (types[i] == container.FrameI) != (i == 0) {
			t.Errorf("frame %d coded as %v with adaptive placement off", i, types[i])
		}
	}
}

// TestSceneCutSteadySequence checks the detector's false-positive side:
// a continuously panning shot with no cuts must never promote a frame.
func TestSceneCutSteadySequence(t *testing.T) {
	const n = 2 * seqgen.SceneCutPeriod
	g := &GOPScheduler{BFrames: 2, SceneCut: true}
	types := scheduleTypes(t, g, seqgen.SportPan, n)
	for i := 1; i < n; i++ {
		if types[i] == container.FrameI {
			t.Errorf("frame %d: pan motion misdetected as a scene cut", i)
		}
	}
}

// TestGOPSchedulerResetForgetsHistory: after flashing black/white
// frames (a huge running SAD average, a white last frame), Reset leaves
// a scheduler equal to a new one, which places the scene_cut clip's I
// frames exactly as a new one does.
func TestGOPSchedulerResetForgetsHistory(t *testing.T) {
	const n = 3*seqgen.SceneCutPeriod + 4
	g := &GOPScheduler{BFrames: 2, SceneCut: true}
	for i := 0; i < 7; i++ {
		f := frame.New(176, 144)
		f.Fill(byte(255*(i%2)), 128, 128)
		g.Push(f)
	}
	g.Reset()
	reset, fresh := *g, GOPScheduler{BFrames: 2, SceneCut: true}
	reset.pending = nil // kept for its capacity
	if len(g.pending) != 0 || !reflect.DeepEqual(reset, fresh) {
		t.Errorf("after Reset %+v, fresh %+v", *g, fresh)
	}
	got := scheduleTypes(t, g, seqgen.SceneCut, n)
	want := scheduleTypes(t, &GOPScheduler{BFrames: 2, SceneCut: true}, seqgen.SceneCut, n)
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Errorf("frame %d: %c after Reset, %c fresh", i, got[i], want[i])
		}
	}
}
