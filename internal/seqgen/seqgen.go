// Package seqgen generates the HD-VideoBench input sequences.
//
// The paper uses four 1080p25 camera captures from TU München (Table III):
// Blue Sky, Pedestrian Area, Riverbed and Rush Hour. Those captures are not
// redistributable, so this package synthesizes deterministic procedural
// equivalents that reproduce the property each sequence was chosen for:
//
//	Blue Sky        — high-contrast detail (trees against sky), global
//	                  camera rotation.
//	Pedestrian Area — static camera, large fast-moving foreground objects
//	                  close to the camera, detailed static background.
//	Riverbed        — temporally decorrelated water shimmer: motion
//	                  estimation barely helps ("very hard to code").
//	Rush Hour       — many small objects moving slowly, fixed camera.
//
// Generators are pure functions of (sequence, resolution, frame index), so
// every run of the benchmark sees identical input, like the paper's fixed
// input set.
//
// The pictures are specified pointwise: reference_test.go gives every
// sample as one expression of its row, column and frame index, built from
// an integer hash and two-octave value noise (fbm2). The code here is a
// span renderer for that specification. It walks each row in spans over
// which the pointwise branches are constant, evaluates fbm2 through row
// kernels (span.go) that hash a lattice row once per frame and never
// divide per sample, and hoists what is constant along a row or a column.
// It must reproduce the specification bit for bit at every size and
// index: TestGoldenPlanes pins digests recorded before the span renderer
// existed, TestSpanRendererMatchesPointwise compares against the
// reference at random sizes and indices. A speed-up that moves a digest
// changed a picture, and with it every PSNR, bitrate and stream digest
// downstream.
//
// A Generator keeps the resolution-dependent column maps and row scratch
// between frames, and nothing that depends on a frame's content: no
// sample is cached from one frame for the next. Because FrameInto writes
// that scratch, one Generator must not render frames concurrently; use
// one per goroutine.
package seqgen

import (
	"fmt"
	"strings"

	"hdvideobench/internal/frame"
)

// Sequence identifies one of the benchmark input sequences.
type Sequence int

const (
	BlueSky Sequence = iota
	PedestrianArea
	Riverbed
	RushHour
	// SportPan, SceneCut and FilmGrain extend the paper's four captures
	// with serving-scenario stressors (see scenes_extra.go): a
	// high-motion global camera pan, a hard-cut shot alternation, and a
	// static scene under temporally-decorrelated grain. They are not
	// part of All — the paper's Table III/V matrix stays canonical.
	SportPan
	SceneCut
	FilmGrain
)

// All lists the four sequences in the paper's Table III/V order.
var All = []Sequence{BlueSky, PedestrianArea, Riverbed, RushHour}

// Extended lists every sequence: the paper's four plus the scenario
// stressors. Front ends that accept a sequence name resolve over this
// set; benchmark defaults stay on All.
var Extended = []Sequence{BlueSky, PedestrianArea, Riverbed, RushHour, SportPan, SceneCut, FilmGrain}

// String returns the sequence name as used in the paper's tables.
func (s Sequence) String() string {
	switch s {
	case BlueSky:
		return "blue_sky"
	case PedestrianArea:
		return "pedestrian_area"
	case Riverbed:
		return "riverbed"
	case RushHour:
		return "rush_hour"
	case SportPan:
		return "sport_pan"
	case SceneCut:
		return "scene_cut"
	case FilmGrain:
		return "film_grain"
	}
	return fmt.Sprintf("Sequence(%d)", int(s))
}

// Parse maps a sequence name (as printed by String) back to its value.
func Parse(name string) (Sequence, error) {
	switch strings.ToLower(name) {
	case "blue_sky", "bluesky", "blue-sky":
		return BlueSky, nil
	case "pedestrian_area", "pedestrian", "pedestrian-area":
		return PedestrianArea, nil
	case "riverbed":
		return Riverbed, nil
	case "rush_hour", "rushhour", "rush-hour":
		return RushHour, nil
	case "sport_pan", "sportpan", "sport-pan":
		return SportPan, nil
	case "scene_cut", "scenecut", "scene-cut":
		return SceneCut, nil
	case "film_grain", "filmgrain", "film-grain":
		return FilmGrain, nil
	}
	return 0, fmt.Errorf("seqgen: unknown sequence %q", name)
}

// FPS is the frame rate of every HD-VideoBench sequence.
const FPS = 25

// Generator produces the frames of one sequence at one resolution. The
// unexported fields are the span renderer's column maps and row scratch,
// built on first use (so a Generator literal works) and overwritten by
// every FrameInto: a Generator is not for concurrent FrameInto calls.
type Generator struct {
	Seq           Sequence
	Width, Height int

	vx  []int32    // vx[c] = c*1920/Width: pixel column c on the virtual canvas
	n   []int32    // one row of noise samples
	tex []*texture // one per lattice cell size the sequence uses
}

// New returns a generator for the given sequence and resolution.
func New(seq Sequence, width, height int) *Generator {
	return &Generator{Seq: seq, Width: width, Height: height}
}

// Frame allocates and renders frame idx.
func (g *Generator) Frame(idx int) *frame.Frame {
	f := frame.New(g.Width, g.Height)
	g.FrameInto(f, idx)
	return f
}

// FrameInto renders frame idx into f (which must match the generator's
// resolution).
func (g *Generator) FrameInto(f *frame.Frame, idx int) {
	if f.Width != g.Width || f.Height != g.Height {
		panic(fmt.Sprintf("seqgen: frame is %dx%d, generator is %dx%d",
			f.Width, f.Height, g.Width, g.Height))
	}
	if len(g.vx) != g.Width {
		g.vx, g.n, g.tex = make([]int32, g.Width), make([]int32, g.Width), nil
		for c := range g.vx {
			g.vx[c] = int32(c) * 1920 / int32(g.Width)
		}
	}
	switch g.Seq {
	case BlueSky:
		g.blueSky(f, idx)
	case PedestrianArea:
		g.pedestrian(f, idx)
	case Riverbed:
		g.riverbed(f, idx)
	case RushHour:
		g.rushHour(f, idx)
	case SportPan:
		g.sportPan(f, idx)
	case SceneCut:
		g.sceneCut(f, idx)
	case FilmGrain:
		g.filmGrain(f, idx)
	default:
		panic(fmt.Sprintf("seqgen: unknown sequence %d", int(g.Seq)))
	}
	f.PTS = idx
}

// Generate renders frames [0, n) of the sequence.
func (g *Generator) Generate(n int) []*frame.Frame {
	out := make([]*frame.Frame, n)
	for i := range out {
		out[i] = g.Frame(i)
	}
	return out
}

// --- deterministic hashing / noise -----------------------------------------

// hash2 is an avalanche integer hash of a 2-D coordinate and seed.
func hash2(x, y, seed uint32) uint32 {
	h := x*0x85EBCA6B ^ y*0xC2B2AE35 ^ seed*0x27D4EB2F
	h ^= h >> 15
	h *= 0x2C1B3C6D
	h ^= h >> 12
	h *= 0x297A2D39
	h ^= h >> 15
	return h
}

// noiseByte returns a uniform byte for a lattice point.
func noiseByte(x, y, seed uint32) int32 {
	return int32(hash2(x, y, seed) & 0xFF)
}

func clampB(v int32) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}
