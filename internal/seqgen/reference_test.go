package seqgen

import "hdvideobench/internal/frame"

// The pointwise renderer, moved here verbatim from scenes.go,
// scenes_extra.go and seqgen.go at commit d709781. It is the
// specification of every picture: each sample is one self-contained
// expression of (sequence, resolution, frame index, row, column), with
// no state carried between samples. The span renderer in the non-test
// files must reproduce it bit for bit (TestSpanRendererMatchesPointwise);
// hash2, noiseByte, clampB, abs32, orbit, fillChroma and drawRectC are
// shared with it.

// referenceFrameInto renders frame idx of seq into f pointwise.
func referenceFrameInto(seq Sequence, f *frame.Frame, idx int) {
	switch seq {
	case BlueSky:
		renderBlueSky(f, idx)
	case PedestrianArea:
		renderPedestrian(f, idx)
	case Riverbed:
		renderRiverbed(f, idx)
	case RushHour:
		renderRushHour(f, idx)
	case SportPan:
		renderSportPan(f, idx)
	case SceneCut:
		renderSceneCut(f, idx)
	case FilmGrain:
		renderFilmGrain(f, idx)
	}
	f.PTS = idx
}

// valueNoise samples smooth value noise at fixed-point coordinates
// (x, y in units of 1/256 of a lattice cell), returning [0, 255].
func valueNoise(x, y int32, seed uint32) int32 {
	xi, yi := uint32(x>>8), uint32(y>>8)
	fx, fy := x&0xFF, y&0xFF
	n00 := noiseByte(xi, yi, seed)
	n10 := noiseByte(xi+1, yi, seed)
	n01 := noiseByte(xi, yi+1, seed)
	n11 := noiseByte(xi+1, yi+1, seed)
	top := n00 + (n10-n00)*fx>>8
	bot := n01 + (n11-n01)*fx>>8
	return top + (bot-top)*fy>>8
}

// fbm2 is two-octave value noise, scale in lattice cells expressed as
// pixels-per-cell (shifted into 8.8 fixed point internally).
func fbm2(px, py int32, cell int32, seed uint32) int32 {
	c1 := valueNoise(px*256/cell, py*256/cell, seed)
	c2 := valueNoise(px*512/cell, py*512/cell, seed^0x9E3779B9)
	return (2*c1 + c2) / 3
}

// renderBlueSky: gradient sky with fine grain, two high-contrast detailed
// tree crowns, global rotation around a point above the frame (camera
// rotation per Table III).
func renderBlueSky(f *frame.Frame, idx int) {
	w, h := int32(f.Width), int32(f.Height)
	// Rotation angle grows ~0.25 deg/frame; fixed point sin/cos via small
	// angle: sin θ ≈ θ, cos θ ≈ 1 - θ²/2 in 16.16.
	theta := int64(idx) * 286 // ≈0.25° in 16.16 radians (0.00436*65536)
	sinT := theta
	cosT := int64(65536) - theta*theta/(2<<16)
	// Rotation centre: above top edge, at mid width (tree tops sweep).
	cx, cy := int64(w/2), int64(-h/2)

	for r := int32(0); r < h; r++ {
		rowY := f.YOrigin + int(r)*f.YStride
		for c := int32(0); c < w; c++ {
			// Rotate pixel into world coordinates (16.16).
			dx := int64(c) - cx
			dy := int64(r) - cy
			wx := (dx*cosT - dy*sinT) >> 16
			wy := (dx*sinT + dy*cosT) >> 16
			// World coords scaled to the virtual canvas.
			vx := int32(wx) * 1920 / w
			vy := int32(wy) * 1088 / h

			// Sky: vertical gradient with slight grain.
			y := 170 + vy*40/1088 + (noiseByte(uint32(vx), uint32(vy), 7)-128)/32

			// Tree crowns: two blobs of dense high-contrast foliage.
			if inTree(vx, vy) {
				leaf := fbm2(vx, vy, 12, 99)
				y = 30 + leaf*2/3 // dark with bright speckle: high contrast
			}
			f.Y[rowY+int(c)] = clampB(y)
		}
	}
	cw, ch := int32(f.ChromaWidth()), int32(f.ChromaHeight())
	for r := int32(0); r < ch; r++ {
		rowC := f.COrigin + int(r)*f.CStride
		for c := int32(0); c < cw; c++ {
			dx := int64(c)*2 - cx
			dy := int64(r)*2 - cy
			wx := (dx*cosT - dy*sinT) >> 16
			wy := (dx*sinT + dy*cosT) >> 16
			vx := int32(wx) * 1920 / w
			vy := int32(wy) * 1088 / h
			if inTree(vx, vy) {
				f.Cb[rowC+int(c)] = 112 // green foliage
				f.Cr[rowC+int(c)] = 110
			} else {
				// Blue sky with *small colour differences* (Table III).
				f.Cb[rowC+int(c)] = clampB(150 + (noiseByte(uint32(vx/8), uint32(vy/8), 5)-128)/16)
				f.Cr[rowC+int(c)] = 100
			}
		}
	}
}

// inTree reports whether virtual coordinate (x, y) is inside one of the two
// tree crowns (irregular blobs near the lower corners).
func inTree(x, y int32) bool {
	if d := blobDist(x, y, 250, 1000, 450); d < 0 {
		return true
	}
	if d := blobDist(x, y, 1750, 1050, 520); d < 0 {
		return true
	}
	return false
}

// blobDist is a noisy circle SDF: negative inside.
func blobDist(x, y, cx, cy, rad int32) int32 {
	dx, dy := x-cx, y-cy
	d2 := dx*dx + dy*dy
	edge := rad + (fbm2(x, y, 90, 31)-128)*rad/300 // wobbly edge
	return d2 - edge*edge
}

// renderPedestrian: static detailed background (building facade + paving),
// 5 large "pedestrians" crossing close to the camera at different speeds.
func renderPedestrian(f *frame.Frame, idx int) {
	w, h := int32(f.Width), int32(f.Height)
	type walker struct {
		speed  int32 // virtual px/frame (1080p scale)
		width  int32
		height int32
		phase  int32
		tone   int32
		cb, cr byte
	}
	walkers := []walker{
		{22, 260, 900, 0, 60, 118, 142},
		{-16, 220, 820, 700, 95, 135, 120},
		{12, 300, 980, 1300, 140, 120, 135},
		{-26, 240, 860, 300, 75, 112, 150},
		{18, 200, 760, 1700, 115, 140, 116},
	}
	// Luma.
	for r := int32(0); r < h; r++ {
		vy := r * 1088 / h
		rowY := f.YOrigin + int(r)*f.YStride
		for c := int32(0); c < w; c++ {
			vx := c * 1920 / w
			f.Y[rowY+int(c)] = clampB(pedBackgroundY(vx, vy))
		}
	}
	// Walkers (painted over, nearest first ordering is irrelevant for SAD).
	for wi, wk := range walkers {
		// Horizontal position wraps across the extended virtual width.
		span := int32(1920 + 400)
		pos := (wk.phase + wk.speed*int32(idx)) % span
		if pos < 0 {
			pos += span
		}
		pos -= 200 // allow entering/leaving frame
		top := int32(1088) - wk.height
		drawBodyY(f, pos, top, wk.width, wk.height, wk.tone, uint32(wi))
	}
	// Chroma.
	cw, ch := int32(f.ChromaWidth()), int32(f.ChromaHeight())
	for r := int32(0); r < ch; r++ {
		rowC := f.COrigin + int(r)*f.CStride
		for c := int32(0); c < cw; c++ {
			f.Cb[rowC+int(c)] = 126
			f.Cr[rowC+int(c)] = 130
		}
	}
	for _, wk := range walkers {
		span := int32(1920 + 400)
		pos := (wk.phase + wk.speed*int32(idx)) % span
		if pos < 0 {
			pos += span
		}
		pos -= 200
		top := int32(1088) - wk.height
		drawRectC(f, pos, top, wk.width, wk.height, wk.cb, wk.cr)
	}
}

func pedBackgroundY(vx, vy int32) int32 {
	if vy < 620 {
		// Facade: window grid.
		wx, wy := vx%160, vy%140
		if wx > 30 && wx < 130 && wy > 25 && wy < 115 {
			return 70 + (fbm2(vx, vy, 40, 11)-128)/6 // glass
		}
		return 150 + (fbm2(vx, vy, 25, 12)-128)/5 // wall texture
	}
	// Paving: fine regular texture with perspective-ish darkening.
	t := fbm2(vx, vy, 14, 13)
	return 120 + (t-128)/3 + (vy-620)/12
}

// drawBodyY paints a textured rounded figure on the luma plane (virtual
// coords scaled to the frame).
func drawBodyY(f *frame.Frame, vx0, vy0, vw, vh, tone int32, seed uint32) {
	w, h := int32(f.Width), int32(f.Height)
	x0 := vx0 * w / 1920
	y0 := vy0 * h / 1088
	x1 := (vx0 + vw) * w / 1920
	y1 := (vy0 + vh) * h / 1088
	for r := max32(y0, 0); r < min32(y1, h); r++ {
		rowY := f.YOrigin + int(r)*f.YStride
		for c := max32(x0, 0); c < min32(x1, w); c++ {
			// Rounded silhouette: skip corners.
			fx := (c - x0) * 256 / max32(x1-x0, 1)
			fy := (r - y0) * 256 / max32(y1-y0, 1)
			if fy < 40 { // head region: narrower
				if fx < 80 || fx > 176 {
					continue
				}
			}
			vx := c * 1920 / w
			vy := r * 1088 / h
			f.Y[rowY+int(c)] = clampB(tone + (fbm2(vx, vy, 30, seed+50)-128)/4)
		}
	}
}

// renderRiverbed: static bed texture seen through temporally decorrelated
// shimmer — most of the signal changes every frame, defeating motion
// estimation exactly like the real sequence ("very hard to code").
func renderRiverbed(f *frame.Frame, idx int) {
	w, h := int32(f.Width), int32(f.Height)
	fi := uint32(idx)
	for r := int32(0); r < h; r++ {
		vy := r * 1088 / h
		rowY := f.YOrigin + int(r)*f.YStride
		for c := int32(0); c < w; c++ {
			vx := c * 1920 / w
			bed := fbm2(vx, vy, 22, 3) // static stones
			// Shimmer: fresh noise every frame, weighted heavily.
			sh := noiseByte(uint32(vx)*3+fi*17, uint32(vy)*5+fi*29, 0xABCD)
			y := 60 + bed/2 + (sh-128)*2/3
			f.Y[rowY+int(c)] = clampB(y)
		}
	}
	cw, ch := int32(f.ChromaWidth()), int32(f.ChromaHeight())
	for r := int32(0); r < ch; r++ {
		rowC := f.COrigin + int(r)*f.CStride
		for c := int32(0); c < cw; c++ {
			vx := c * 2 * 1920 / (2 * w) // chroma sampled at half res
			vy := r * 2 * 1088 / (2 * h)
			sh := noiseByte(uint32(vx)+fi*13, uint32(vy)+fi*7, 0x1234)
			f.Cb[rowC+int(c)] = clampB(134 + (sh-128)/8)
			f.Cr[rowC+int(c)] = clampB(120 + (sh-128)/10)
		}
	}
}

// renderRushHour: fixed camera on a hazy road, ~14 cars in 4 lanes moving
// slowly (|v| ≤ 4 virtual px/frame), size scaled by lane depth.
func renderRushHour(f *frame.Frame, idx int) {
	w, h := int32(f.Width), int32(f.Height)
	for r := int32(0); r < h; r++ {
		vy := r * 1088 / h
		rowY := f.YOrigin + int(r)*f.YStride
		for c := int32(0); c < w; c++ {
			vx := c * 1920 / w
			f.Y[rowY+int(c)] = clampB(rushBackgroundY(vx, vy))
		}
	}
	type lane struct {
		y, carH int32
		speed   int32
	}
	lanes := []lane{
		{480, 70, 2}, {600, 110, -1}, {760, 160, 3}, {950, 220, -2},
	}
	car := 0
	for li, ln := range lanes {
		n := 4 - li%2
		for i := 0; i < n; i++ {
			car++
			carW := ln.carH * 2
			span := int32(1920) + carW*2
			phase := int32(car) * 522
			pos := (phase + ln.speed*int32(idx)) % span
			if pos < 0 {
				pos += span
			}
			pos -= carW
			tone := int32(60 + (car*37)%150)
			drawCar(f, pos, ln.y-ln.carH, carW, ln.carH, tone, uint32(car))
		}
	}
	cw, ch := int32(f.ChromaWidth()), int32(f.ChromaHeight())
	for r := int32(0); r < ch; r++ {
		rowC := f.COrigin + int(r)*f.CStride
		for c := int32(0); c < cw; c++ {
			f.Cb[rowC+int(c)] = 128
			f.Cr[rowC+int(c)] = 128
		}
	}
	for li, ln := range lanes {
		n := 4 - li%2
		for i := 0; i < n; i++ {
			car++
			carW := ln.carH * 2
			span := int32(1920) + carW*2
			phase := int32(car) * 522
			pos := (phase + ln.speed*int32(idx)) % span
			if pos < 0 {
				pos += span
			}
			pos -= carW
			drawRectC(f, pos, ln.y-ln.carH, carW, ln.carH,
				byte(110+(car*23)%40), byte(110+(car*41)%40))
		}
	}
}

func rushBackgroundY(vx, vy int32) int32 {
	if vy < 420 {
		// Hazy skyline: low contrast (high depth of focus haze).
		return 160 + (fbm2(vx, vy, 120, 21)-128)/8
	}
	// Road with lane markings.
	y := int32(95) + (fbm2(vx, vy, 10, 22)-128)/8
	for _, laneY := range []int32{480, 600, 760, 950} {
		if vy > laneY+6 && vy < laneY+14 && (vx/80)%2 == 0 {
			y = 200
		}
	}
	return y
}

func drawCar(f *frame.Frame, vx0, vy0, vw, vh, tone int32, seed uint32) {
	w, h := int32(f.Width), int32(f.Height)
	x0 := vx0 * w / 1920
	y0 := vy0 * h / 1088
	x1 := (vx0 + vw) * w / 1920
	y1 := (vy0 + vh) * h / 1088
	for r := max32(y0, 0); r < min32(y1, h); r++ {
		rowY := f.YOrigin + int(r)*f.YStride
		for c := max32(x0, 0); c < min32(x1, w); c++ {
			fy := (r - y0) * 256 / max32(y1-y0, 1)
			v := tone
			if fy < 100 { // windshield band
				v = tone / 2
			}
			vx := c * 1920 / w
			f.Y[rowY+int(c)] = clampB(v + (noiseByte(uint32(vx), seed, 77)-128)/16)
		}
	}
}

// renderSportPan: the camera pans right at SportPanSpeed virtual
// px/frame over a pitch that is static in world coordinates — striped
// turf with fine grain, white field lines, a crowd band across the top
// — so consecutive frames are exact translations of each other apart
// from the newly revealed strip. High global motion, high spatial
// detail.
func renderSportPan(f *frame.Frame, idx int) {
	w, h := int32(f.Width), int32(f.Height)
	pan := int32(idx) * SportPanSpeed
	for r := int32(0); r < h; r++ {
		vy := r * 1088 / h
		rowY := f.YOrigin + int(r)*f.YStride
		for c := int32(0); c < w; c++ {
			wx := c*1920/w + pan // world coordinate: content pans left
			f.Y[rowY+int(c)] = clampB(pitchY(wx, vy))
		}
	}
	cw, ch := int32(f.ChromaWidth()), int32(f.ChromaHeight())
	for r := int32(0); r < ch; r++ {
		vy := r * 2 * 1088 / h
		rowC := f.COrigin + int(r)*f.CStride
		for c := int32(0); c < cw; c++ {
			wx := c*2*1920/w + pan
			if vy < 300 { // crowd: desaturated
				f.Cb[rowC+int(c)] = clampB(126 + (noiseByte(uint32(wx/4), uint32(vy/4), 61)-128)/16)
				f.Cr[rowC+int(c)] = 130
			} else { // turf: green
				f.Cb[rowC+int(c)] = 108
				f.Cr[rowC+int(c)] = 112
			}
		}
	}
}

// pitchY is the sport_pan world: crowd band, striped turf, field lines.
// Pure function of world coordinates, so the pan is an exact translate.
func pitchY(wx, vy int32) int32 {
	if vy < 300 {
		// Crowd: dense uncorrelated speckle (faces and shirts).
		return 90 + (noiseByte(uint32(wx/6), uint32(vy/6), 57)-128)/2
	}
	// Mowing stripes alternate every 96 virtual px; fine blade grain on top.
	y := int32(95)
	if (wx/96)%2 == 0 {
		y = 115
	}
	y += (fbm2(wx, vy, 7, 58) - 128) / 4
	// Vertical field lines every 480 px and a halfway horizontal at 700.
	lx := wx % 480
	if lx < 0 {
		lx += 480
	}
	if lx < 8 || (vy > 696 && vy < 706) {
		y = 225
	}
	return y
}

// renderSceneCut alternates between two unrelated shots every
// SceneCutPeriod frames. Motion inside each shot is moderate (a prop
// orbits in shot A, light streaks drift in shot B) but the cut replaces
// nearly every pixel: shot A is bright and warm, shot B dark and cool.
func renderSceneCut(f *frame.Frame, idx int) {
	if (idx/SceneCutPeriod)%2 == 0 {
		renderCutShotA(f, idx)
	} else {
		renderCutShotB(f, idx)
	}
}

// renderCutShotA: bright studio — light gradient backdrop with gentle
// texture and a large dark panel orbiting the centre.
func renderCutShotA(f *frame.Frame, idx int) {
	w, h := int32(f.Width), int32(f.Height)
	// Panel centre orbits on a small square path, 4 virtual px/frame.
	t := int32(idx) * 4 % 512
	ox, oy := orbit(t)
	px, py := int32(960)+ox, int32(544)+oy
	for r := int32(0); r < h; r++ {
		vy := r * 1088 / h
		rowY := f.YOrigin + int(r)*f.YStride
		for c := int32(0); c < w; c++ {
			vx := c * 1920 / w
			y := 190 + vy*30/1088 + (fbm2(vx, vy, 60, 71)-128)/8
			if abs32(vx-px) < 260 && abs32(vy-py) < 180 {
				y = 55 + (fbm2(vx, vy, 24, 72)-128)/6
			}
			f.Y[rowY+int(c)] = clampB(y)
		}
	}
	fillChroma(f, 118, 138) // warm
}

// renderCutShotB: night road — near-black backdrop with a dim ground
// texture and three bright light streaks drifting left.
func renderCutShotB(f *frame.Frame, idx int) {
	w, h := int32(f.Width), int32(f.Height)
	drift := int32(idx) * 6
	for r := int32(0); r < h; r++ {
		vy := r * 1088 / h
		rowY := f.YOrigin + int(r)*f.YStride
		for c := int32(0); c < w; c++ {
			vx := c * 1920 / w
			y := 22 + (fbm2(vx, vy, 90, 81)-128)/16
			for lane := int32(0); lane < 3; lane++ {
				ly := 300 + lane*250
				lx := (lane*640 - drift) % 1920
				if lx < 0 {
					lx += 1920
				}
				if abs32(vy-ly) < 30 && abs32(vx-lx) < 110 {
					y = 210 - abs32(vx-lx)/2
				}
			}
			f.Y[rowY+int(c)] = clampB(y)
		}
	}
	fillChroma(f, 140, 118) // cool
}

// renderFilmGrain: a completely static interior scene — smooth wall
// gradient, a dark framed rectangle, soft large-scale texture — overlaid
// with dense grain that is re-drawn from an independent seed every frame.
// The base never moves, so the true global motion is zero; the grain
// never correlates between frames, so inter SAD stays high no matter
// what vector motion search tries. This is the rate-control stressor:
// residual cost is irreducible and every frame costs about the same.
func renderFilmGrain(f *frame.Frame, idx int) {
	w, h := int32(f.Width), int32(f.Height)
	seed := 0xF11F ^ uint32(idx)*0x9E3779B9 // per-frame grain seed
	for r := int32(0); r < h; r++ {
		vy := r * 1088 / h
		rowY := f.YOrigin + int(r)*f.YStride
		for c := int32(0); c < w; c++ {
			vx := c * 1920 / w
			// Static base: lit wall with coarse texture and a dark frame.
			y := 150 - vy*40/1088 + (fbm2(vx, vy, 120, 91)-128)/10
			if vx > 600 && vx < 1300 && vy > 250 && vy < 800 {
				y = 70 + (fbm2(vx, vy, 48, 92)-128)/12
			}
			// Decorrelated grain, uniform in ±GrainAmplitude.
			g := (noiseByte(uint32(c), uint32(r), seed) - 128) * GrainAmplitude / 128
			f.Y[rowY+int(c)] = clampB(y + g)
		}
	}
	fillChroma(f, 128, 128) // grain is luma-only, chroma neutral
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
