package seqgen

import "hdvideobench/internal/frame"

// Scene scale: generators are written against a virtual 1920×1088 canvas and
// scale coordinates by the actual resolution, so content (and therefore
// motion in pixels per frame) scales with resolution the way real captures
// downsampled from 1080p do.
//
// Every renderer here is the span form of the pointwise function of the
// same name in reference_test.go: it walks a row in spans over which the
// pointwise branches are constant, takes each span's texture from a row
// kernel (span.go) and hoists what is constant along the row.

// blueSky: gradient sky with fine grain, two high-contrast detailed
// tree crowns, global rotation around a point above the frame (camera
// rotation per Table III).
func (g *Generator) blueSky(f *frame.Frame, idx int) {
	w, h := int32(f.Width), int32(f.Height)
	// Rotation angle grows ~0.25 deg/frame; fixed point sin/cos via small
	// angle: sin θ ≈ θ, cos θ ≈ 1 - θ²/2 in 16.16.
	theta := int64(idx) * 286 // ≈0.25° in 16.16 radians (0.00436*65536)
	sinT := theta
	cosT := int64(65536) - theta*theta/(2<<16)
	// Rotation centre: above top edge, at mid width (tree tops sweep).
	cx, cy := int64(w/2), int64(-h/2)
	tr, byW, byH := newTrees(), newDivisor(w), newDivisor(h)

	for r := int32(0); r < h; r++ {
		rowY := f.Y[f.YOrigin+int(r)*f.YStride:][:w]
		// Chroma sample (r/2, c/2) sits on luma sample (r, c) for even r
		// and c, so it takes that sample's coordinates and tree test.
		o := f.COrigin + int(r/2)*f.CStride
		rowCb, rowCr := f.Cb[o:][:w/2], f.Cr[o:][:w/2]
		// Rotate pixel into world coordinates (16.16), one column step
		// at a time.
		dy := int64(r) - cy
		ax, ay := -cx*cosT-dy*sinT, -cx*sinT+dy*cosT
		for c := range rowY {
			// World coords scaled to the virtual canvas.
			vx := byW.div(int32(ax>>16) * 1920)
			vy := byH.div(int32(ay>>16) * 1088)
			ax, ay = ax+cosT, ay+sinT
			chroma := (int(r)|c)&1 == 0

			// Tree crowns: two blobs of dense high-contrast foliage.
			if tr.in(vx, vy) {
				leaf := tr.leaf(vx, vy)
				rowY[c] = clampB(30 + leaf*2/3) // dark with bright speckle: high contrast
				if chroma {
					rowCb[c/2], rowCr[c/2] = 112, 110 // green foliage
				}
				continue
			}
			// Sky: vertical gradient with slight grain.
			rowY[c] = clampB(170 + vy*40/1088 + (noiseByte(uint32(vx), uint32(vy), 7)-128)/32)
			if chroma {
				// Blue sky with *small colour differences* (Table III).
				rowCb[c/2] = clampB(150 + (noiseByte(uint32(vx/8), uint32(vy/8), 5)-128)/16)
				rowCr[c/2] = 100
			}
		}
	}
}

// blob is one tree crown: a circle whose radius wobbles with the edge
// noise n in [0, 255] as rad + (n-128)*rad/300. near2 and far2 are the
// squares of the smallest and largest radius that can take.
type blob struct{ cx, cy, rad, near2, far2 int32 }

func newBlob(cx, cy, rad int32) blob {
	near, far := rad+(0-128)*rad/300, rad+(255-128)*rad/300
	return blob{cx, cy, rad, near * near, far * far}
}

// trees tests virtual coordinates against the two tree crowns (irregular
// blobs near the lower corners) and textures their foliage.
type trees struct {
	blobs      [2]blob
	edge, foli [2]pointNoise // octaves of fbm2(·, ·, 90, 31) and fbm2(·, ·, 12, 99)
}

func newTrees() trees {
	return trees{
		blobs: [2]blob{newBlob(250, 1000, 450), newBlob(1750, 1050, 520)},
		edge:  [2]pointNoise{newPointNoise(31), newPointNoise(31 ^ 0x9E3779B9)},
		foli:  [2]pointNoise{newPointNoise(99), newPointNoise(99 ^ 0x9E3779B9)},
	}
}

// in reports whether (x, y) is inside a crown: a noisy circle SDF,
// negative inside. The edge noise (the same fbm2 for both crowns) only
// decides samples between a crown's smallest and largest radius and is
// not evaluated elsewhere. The comparisons keep the pointwise form's
// wrapping int32 arithmetic: over the radii a crown can take, d2-e*e
// spans less than 2³¹, so when it has the same sign at both ends it has
// that sign for every radius between.
//
//hdvlint:noalloc
func (t *trees) in(x, y int32) bool {
	for i := range t.blobs {
		b := &t.blobs[i]
		dx, dy := x-b.cx, y-b.cy
		d2 := dx*dx + dy*dy
		in, out := d2-b.near2 < 0, d2-b.far2 >= 0
		if in == out {
			c1 := t.edge[0].at(x*256/90, y*256/90)
			c2 := t.edge[1].at(x*512/90, y*512/90)
			e := b.rad + ((2*c1+c2)/3-128)*b.rad/300 // wobbly edge
			in = d2-e*e < 0
		}
		if in {
			return true
		}
	}
	return false
}

// leaf is fbm2(x, y, 12, 99), the foliage texture.
//
//hdvlint:noalloc
func (t *trees) leaf(x, y int32) int32 {
	c1 := t.foli[0].at(x*256/12, y*256/12)
	c2 := t.foli[1].at(x*512/12, y*512/12)
	return (2*c1 + c2) / 3
}

// walker is one pedestrian of pedestrian_area: speed in virtual px/frame
// (1080p scale), size and start on the virtual canvas, luma tone, colour.
type walker struct {
	speed, width, height, phase, tone int32
	cb, cr                            byte
}

var walkers = [...]walker{
	{22, 260, 900, 0, 60, 118, 142},
	{-16, 220, 820, 700, 95, 135, 120},
	{12, 300, 980, 1300, 140, 120, 135},
	{-26, 240, 860, 300, 75, 112, 150},
	{18, 200, 760, 1700, 115, 140, 116},
}

// pos is the walker's left edge at frame idx: it wraps across the
// extended virtual width, entering and leaving the frame.
func (wk *walker) pos(idx int) int32 {
	span := int32(1920 + 400)
	pos := (wk.phase + wk.speed*int32(idx)) % span
	if pos < 0 {
		pos += span
	}
	return pos - 200
}

// pedestrian: static detailed background (building facade + paving),
// 5 large "pedestrians" crossing close to the camera at different speeds.
func (g *Generator) pedestrian(f *frame.Frame, idx int) {
	w, h := f.Width, int32(f.Height)
	glass, wall, paving := g.texture(40, 0, 11, 6), g.texture(25, 0, 12, 5), g.texture(14, 0, 13, 3)
	for r := int32(0); r < h; r++ {
		vy := r * 1088 / h
		rowY := f.Y[f.YOrigin+int(r)*f.YStride:][:w]
		if vy >= 620 {
			// Paving: fine regular texture with perspective-ish darkening.
			paving.paint(rowY, 0, w, vy, 120+(vy-620)/12)
			continue
		}
		// Facade: wall texture, and a window grid on the rows that cross
		// it — glass where 30 < vx%160 < 130.
		wall.paint(rowY, 0, w, vy, 150)
		if wy := vy % 140; wy > 25 && wy < 115 {
			for x := int32(0); x < 1920; x += 160 {
				glass.paint(rowY, g.colOf(x+31), g.colOf(x+130), vy, 70)
			}
		}
	}
	// Walkers (painted over, nearest first ordering is irrelevant for SAD).
	for wi := range walkers {
		wk := &walkers[wi]
		g.body(f, wk.pos(idx), 1088-wk.height, wk.width, wk.height, wk.tone, uint32(wi))
	}
	fillChroma(f, 126, 130)
	for wi := range walkers {
		wk := &walkers[wi]
		drawRectC(f, wk.pos(idx), 1088-wk.height, wk.width, wk.height, wk.cb, wk.cr)
	}
}

// body paints a textured rounded figure on the luma plane (virtual
// coords scaled to the frame).
func (g *Generator) body(f *frame.Frame, vx0, vy0, vw, vh, tone int32, seed uint32) {
	w, h := int32(f.Width), int32(f.Height)
	x0 := vx0 * w / 1920
	y0 := vy0 * h / 1088
	x1 := (vx0 + vw) * w / 1920
	y1 := (vy0 + vh) * h / 1088
	// Rounded silhouette: the head rows keep only the columns whose
	// position fx = (c-x0)*256/dx across the figure is in [80, 176].
	dx := max(x1-x0, 1)
	hx0, hx1 := x0+(80*dx+255)/256, x0+(177*dx+255)/256
	tex := g.texture(30, 0, seed+50, 4)
	for r := max(y0, 0); r < min(y1, h); r++ {
		c0, c1 := x0, x1
		if fy := (r - y0) * 256 / max(y1-y0, 1); fy < 40 { // head region: narrower
			c0, c1 = hx0, hx1
		}
		tex.paint(f.Y[f.YOrigin+int(r)*f.YStride:], int(max(c0, 0)), int(min(c1, w)), r*1088/h, tone)
	}
}

func drawRectC(f *frame.Frame, vx0, vy0, vw, vh int32, cb, cr byte) {
	cw, ch := int32(f.ChromaWidth()), int32(f.ChromaHeight())
	x0 := vx0 * cw / 1920
	y0 := vy0 * ch / 1088
	x1 := (vx0 + vw) * cw / 1920
	y1 := (vy0 + vh) * ch / 1088
	for r := max(y0, 0); r < min(y1, ch); r++ {
		rowC := f.COrigin + int(r)*f.CStride
		for c := max(x0, 0); c < min(x1, cw); c++ {
			f.Cb[rowC+int(c)] = cb
			f.Cr[rowC+int(c)] = cr
		}
	}
}

// riverbed: static bed texture seen through temporally decorrelated
// shimmer — most of the signal changes every frame, defeating motion
// estimation exactly like the real sequence ("very hard to code").
func (g *Generator) riverbed(f *frame.Frame, idx int) {
	w, h := f.Width, int32(f.Height)
	fi := uint32(idx)
	bed := g.texture(22, 0, 3, 1) // static stones
	for r := int32(0); r < h; r++ {
		vy := r * 1088 / h
		rowY := f.Y[f.YOrigin+int(r)*f.YStride:][:w]
		n := bed.row(0, w, vy)
		shy := uint32(vy)*5 + fi*29
		for c, vx := range g.vx {
			// Shimmer: fresh noise every frame, weighted heavily.
			sh := noiseByte(uint32(vx)*3+fi*17, shy, 0xABCD)
			rowY[c] = clampB(60 + (n[c]+128)/2 + (sh-128)*2/3)
		}
	}
	cw, ch := f.ChromaWidth(), int32(f.ChromaHeight())
	for r := int32(0); r < ch; r++ {
		o := f.COrigin + int(r)*f.CStride
		rowCb, rowCr := f.Cb[o:][:cw], f.Cr[o:][:cw]
		// Chroma sampled at half res: sample (r, c) sits at the virtual
		// position of luma (r, c), c*2*1920/(2*w) being vx[c].
		shy := uint32(r*1088/h) + fi*7
		for c, vx := range g.vx[:cw] {
			sh := noiseByte(uint32(vx)+fi*13, shy, 0x1234)
			rowCb[c] = clampB(134 + (sh-128)/8)
			rowCr[c] = clampB(120 + (sh-128)/10)
		}
	}
}

// rushLanes are rush_hour's four lanes: kerb line, car height (cars are
// twice as long as high) and speed in virtual px/frame.
var rushLanes = [...]struct{ y, carH, speed int32 }{
	{480, 70, 2}, {600, 110, -1}, {760, 160, 3}, {950, 220, -2},
}

// rushHour: fixed camera on a hazy road, ~14 cars in 4 lanes moving
// slowly (|v| ≤ 4 virtual px/frame), size scaled by lane depth.
func (g *Generator) rushHour(f *frame.Frame, idx int) {
	w, h := f.Width, int32(f.Height)
	haze, road := g.texture(120, 0, 21, 8), g.texture(10, 0, 22, 8)
	for r := int32(0); r < h; r++ {
		vy := r * 1088 / h
		rowY := f.Y[f.YOrigin+int(r)*f.YStride:][:w]
		if vy < 420 {
			// Hazy skyline: low contrast (high depth of focus haze).
			haze.paint(rowY, 0, w, vy, 160)
			continue
		}
		// Road with lane markings: dashes where (vx/80)%2 == 0.
		road.paint(rowY, 0, w, vy, 95)
		for _, ln := range rushLanes {
			if vy > ln.y+6 && vy < ln.y+14 {
				for x := int32(0); x < 1920; x += 160 {
					for c, c1 := g.colOf(x), g.colOf(x+80); c < c1; c++ {
						rowY[c] = 200
					}
				}
			}
		}
	}
	// The car counter runs on through the chroma pass (cars 15..28), so a
	// car's colour patch moves with another phase than its luma body.
	// Known content bug, kept: fixing it changes the pictures (ROADMAP).
	car := 0
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			fillChroma(f, 128, 128)
		}
		for li, ln := range rushLanes {
			for i := 0; i < 4-li%2; i++ {
				car++
				carW := ln.carH * 2
				span := int32(1920) + carW*2
				pos := (int32(car)*522 + ln.speed*int32(idx)) % span
				if pos < 0 {
					pos += span
				}
				pos -= carW
				if pass == 0 {
					g.car(f, pos, ln.y-ln.carH, carW, ln.carH, int32(60+(car*37)%150), uint32(car))
				} else {
					drawRectC(f, pos, ln.y-ln.carH, carW, ln.carH,
						byte(110+(car*23)%40), byte(110+(car*41)%40))
				}
			}
		}
	}
}

// car paints one car body: tone, a darker windshield band over the top
// rows, and grain that depends on the column alone.
func (g *Generator) car(f *frame.Frame, vx0, vy0, vw, vh, tone int32, seed uint32) {
	w, h := int32(f.Width), int32(f.Height)
	x0 := vx0 * w / 1920
	y0 := vy0 * h / 1088
	x1 := (vx0 + vw) * w / 1920
	y1 := (vy0 + vh) * h / 1088
	c0, c1 := max(x0, 0), min(x1, w)
	if c0 >= c1 {
		return
	}
	grain := g.n[c0:c1]
	for i, vx := range g.vx[c0:c1] {
		grain[i] = (noiseByte(uint32(vx), seed, 77) - 128) / 16
	}
	for r := max(y0, 0); r < min(y1, h); r++ {
		v := tone
		if fy := (r - y0) * 256 / max(y1-y0, 1); fy < 100 { // windshield band
			v = tone / 2
		}
		rowY := f.Y[f.YOrigin+int(r)*f.YStride+int(c0):][:len(grain)]
		for i, gr := range grain {
			rowY[i] = clampB(v + gr)
		}
	}
}
