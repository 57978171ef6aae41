package seqgen

import "hdvideobench/internal/frame"

// The scenario-stressor sequences, written against the same virtual
// 1920×1088 canvas as the paper's four (scenes.go):
//
//	sport_pan — a fast global camera pan across a detailed sports
//	            pitch: the whole frame translates SportPanSpeed virtual
//	            pixels every frame, so motion search must chase a large
//	            uniform displacement (the televised-sport workload).
//	scene_cut — shots alternate between two completely different scenes
//	            every SceneCutPeriod frames: most of the picture changes
//	            at each cut, the worst case for inter prediction and the
//	            natural trigger for adaptive I-frame placement.

// SportPanSpeed is the sport_pan camera's horizontal displacement in
// virtual (1920-wide canvas) pixels per frame. At a rendered width w
// the per-frame pixel shift is SportPanSpeed*w/1920 — an exact integer
// whenever w is a multiple of 96, which every benchmark resolution is.
const SportPanSpeed = 20

// SceneCutPeriod is the shot length of scene_cut in frames: frame
// k*SceneCutPeriod is the first frame of a new shot.
const SceneCutPeriod = 16

// sportPan: the camera pans right at SportPanSpeed virtual
// px/frame over a pitch that is static in world coordinates — striped
// turf with fine grain, white field lines, a crowd band across the top
// — so consecutive frames are exact translations of each other apart
// from the newly revealed strip. High global motion, high spatial
// detail. Everything is a pure function of the world column
// wx = vx[c] + pan, so the pan is an exact translate.
func (g *Generator) sportPan(f *frame.Frame, idx int) {
	w, h := f.Width, int32(f.Height)
	pan := int32(idx) * SportPanSpeed // world coordinate: content pans left
	blades := g.texture(7, pan, 58, 4)
	for r := int32(0); r < h; r++ {
		vy := r * 1088 / h
		rowY := f.Y[f.YOrigin+int(r)*f.YStride:][:w]
		if vy < 300 {
			// Crowd: dense uncorrelated speckle (faces and shirts).
			for c, vx := range g.vx {
				rowY[c] = clampB(90 + (noiseByte(uint32((vx+pan)/6), uint32(vy/6), 57)-128)/2)
			}
			continue
		}
		n := blades.row(0, w, vy)
		line := vy > 696 && vy < 706 // the halfway line
		for c, vx := range g.vx {
			wx := vx + pan
			// Mowing stripes alternate every 96 virtual px; fine blade grain on top.
			y := int32(95)
			if (wx/96)%2 == 0 {
				y = 115
			}
			y += n[c]
			// Vertical field lines every 480 px and a halfway horizontal at 700.
			lx := wx % 480
			if lx < 0 {
				lx += 480
			}
			if lx < 8 || line {
				y = 225
			}
			rowY[c] = clampB(y)
		}
	}
	cw, ch := f.ChromaWidth(), int32(f.ChromaHeight())
	for r := int32(0); r < ch; r++ {
		vy := r * 2 * 1088 / h
		o := f.COrigin + int(r)*f.CStride
		rowCb, rowCr := f.Cb[o:][:cw], f.Cr[o:][:cw]
		for c := range rowCb {
			if vy < 300 { // crowd: desaturated
				wx := g.vx[2*c] + pan
				rowCb[c] = clampB(126 + (noiseByte(uint32(wx/4), uint32(vy/4), 61)-128)/16)
				rowCr[c] = 130
			} else { // turf: green
				rowCb[c] = 108
				rowCr[c] = 112
			}
		}
	}
}

// sceneCut alternates between two unrelated shots every
// SceneCutPeriod frames. Motion inside each shot is moderate (a prop
// orbits in shot A, light streaks drift in shot B) but the cut replaces
// nearly every pixel: shot A is bright and warm, shot B dark and cool.
func (g *Generator) sceneCut(f *frame.Frame, idx int) {
	if (idx/SceneCutPeriod)%2 == 0 {
		g.cutShotA(f, idx)
	} else {
		g.cutShotB(f, idx)
	}
}

// cutShotA: bright studio — light gradient backdrop with gentle
// texture and a large dark panel orbiting the centre.
func (g *Generator) cutShotA(f *frame.Frame, idx int) {
	w, h := f.Width, int32(f.Height)
	// Panel centre orbits on a small square path, 4 virtual px/frame.
	t := int32(idx) * 4 % 512
	ox, oy := orbit(t)
	px, py := int32(960)+ox, int32(544)+oy
	p0, p1 := g.colOf(px-259), g.colOf(px+260) // columns with |vx-px| < 260
	backdrop, panel := g.texture(60, 0, 71, 8), g.texture(24, 0, 72, 6)
	for r := int32(0); r < h; r++ {
		vy := r * 1088 / h
		rowY := f.Y[f.YOrigin+int(r)*f.YStride:][:w]
		backdrop.paint(rowY, 0, w, vy, 190+vy*30/1088)
		if abs32(vy-py) < 180 {
			panel.paint(rowY, p0, p1, vy, 55)
		}
	}
	fillChroma(f, 118, 138) // warm
}

// cutShotB: night road — near-black backdrop with a dim ground
// texture and three bright light streaks drifting left.
func (g *Generator) cutShotB(f *frame.Frame, idx int) {
	w, h := f.Width, int32(f.Height)
	drift := int32(idx) * 6
	ground := g.texture(90, 0, 81, 16)
	for r := int32(0); r < h; r++ {
		vy := r * 1088 / h
		rowY := f.Y[f.YOrigin+int(r)*f.YStride:][:w]
		ground.paint(rowY, 0, w, vy, 22)
		for lane := int32(0); lane < 3; lane++ {
			if abs32(vy-(300+lane*250)) >= 30 {
				continue
			}
			lx := (lane*640 - drift) % 1920
			if lx < 0 {
				lx += 1920
			}
			// The streak: columns with |vx-lx| < 110.
			for c, c1 := g.colOf(lx-109), g.colOf(lx+110); c < c1; c++ {
				rowY[c] = clampB(210 - abs32(g.vx[c]-lx)/2)
			}
		}
	}
	fillChroma(f, 140, 118) // cool
}

// orbit maps t in [0,512) onto a square path of half-side 64: four
// 128-step edges, so the prop moves 1 unit per t step.
func orbit(t int32) (int32, int32) {
	switch {
	case t < 128:
		return t - 64, -64
	case t < 256:
		return 64, t - 128 - 64
	case t < 384:
		return 64 - (t - 256), 64
	default:
		return -64, 64 - (t - 384)
	}
}

func fillChroma(f *frame.Frame, cb, cr byte) {
	cw, ch := f.ChromaWidth(), f.ChromaHeight()
	for r := 0; r < ch; r++ {
		rowC := f.COrigin + r*f.CStride
		for c := 0; c < cw; c++ {
			f.Cb[rowC+c] = cb
			f.Cr[rowC+c] = cr
		}
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// GrainAmplitude is the peak luma excursion of film_grain's noise layer
// (the grain is roughly uniform in ±GrainAmplitude around the static
// base picture).
const GrainAmplitude = 16

// filmGrain: a completely static interior scene — smooth wall
// gradient, a dark framed rectangle, soft large-scale texture — overlaid
// with dense grain that is re-drawn from an independent seed every frame.
// The base never moves, so the true global motion is zero; the grain
// never correlates between frames, so inter SAD stays high no matter
// what vector motion search tries. This is the rate-control stressor:
// residual cost is irreducible and every frame costs about the same.
func (g *Generator) filmGrain(f *frame.Frame, idx int) {
	w, h := f.Width, int32(f.Height)
	seed := 0xF11F ^ uint32(idx)*0x9E3779B9 // per-frame grain seed
	p0, p1 := g.colOf(601), g.colOf(1300)   // the frame: 600 < vx < 1300
	wall, dark := g.texture(120, 0, 91, 10), g.texture(48, 0, 92, 12)
	for r := int32(0); r < h; r++ {
		vy := r * 1088 / h
		rowY := f.Y[f.YOrigin+int(r)*f.YStride:][:w]
		// Static base: lit wall with coarse texture and a dark frame.
		n, tone := wall.row(0, w, vy), 150-vy*40/1088
		for c := range n {
			n[c] += tone
		}
		if vy > 250 && vy < 800 {
			dark.row(p0, p1, vy)
			for c := p0; c < p1; c++ {
				n[c] += 70
			}
		}
		// Decorrelated grain, uniform in ±GrainAmplitude.
		for c := range rowY {
			gr := (noiseByte(uint32(c), uint32(r), seed) - 128) * GrainAmplitude / 128
			rowY[c] = clampB(n[c] + gr)
		}
	}
	fillChroma(f, 128, 128) // grain is luma-only, chroma neutral
}
