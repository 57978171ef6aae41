package seqgen

import "math/bits"

// The span renderer's kernels. Value noise interpolates a lattice of
// hashed bytes, across and then down, and fbm2 sums two octaves of it;
// the pointwise definition (reference_test.go) re-hashes four lattice
// corners per octave per sample and divides to find them. But which
// lattice columns a pixel column lies between never changes, and the
// lattice row changes only every few to a few dozen pixel rows, so a
// texture maps its columns once, hashes a lattice row once per frame,
// interpolates it across once, and keeps that for every pixel row
// between the same two lattice rows.

// octave is one octave of a texture.
type octave struct {
	// col[c] is column c's lattice x coordinate in 8.8 fixed point with
	// the integer part renumbered: pts[col[c]>>8] and the entry after it
	// are the lattice columns left and right of c, col[c]&0xFF is the
	// fraction between them. pts lists, ascending, the lattice columns
	// some pixel column touches; lat is one lattice row hashed at them.
	col []int32
	pts []uint32
	lat []int32
	// top[c] and bot[c] are lattice rows yi and yi+1 interpolated to
	// column c, valid while live.
	top, bot []int32
	yi       uint32
	live     bool
}

// texture evaluates fbm2(vx[c]+off, y, cell, seed) along pixel rows, as
// the shade (v-128)/div a scene adds to its base tone for noise value v.
type texture struct {
	cell, off int32
	seed      uint32
	shade     [256]int32
	oct       [2]octave
	n         []int32 // the generator's scratch row
}

// texture returns the generator's texture of the given lattice cell size,
// set up for one frame: column maps for virtual columns vx[c]+off, and no
// lattice row kept — nothing hashed for one frame is seen by the next.
func (g *Generator) texture(cell, off int32, seed uint32, div int32) *texture {
	var t *texture
	for _, u := range g.tex {
		if u.cell == cell {
			t = u
			break
		}
	}
	if t == nil {
		t = &texture{cell: cell, n: g.n}
		g.tex = append(g.tex, t)
	}
	if t.off != off || t.oct[0].col == nil {
		t.build(g.vx, off)
	}
	t.seed, t.oct[0].live, t.oct[1].live = seed, false, false
	for v := range t.shade {
		t.shade[v] = (int32(v) - 128) / div
	}
	return t
}

// build fills the column maps for virtual columns vx shifted by off.
func (t *texture) build(vx []int32, off int32) {
	t.off = off
	w := len(vx)
	for i := range t.oct {
		o, mul := &t.oct[i], int32(256<<i)
		if o.col == nil {
			// The lattice spans the same distance whatever off is, give
			// or take a rounding step, so capacity is taken once.
			n := min(2*w, int(vx[w-1]*mul/t.cell>>8)+4)
			o.pts, o.lat = make([]uint32, 0, n), make([]int32, n)
			o.col, o.top, o.bot = make([]int32, w), make([]int32, w), make([]int32, w)
		}
		o.pts = o.pts[:0]
		for c, v := range vx {
			x := (v + off) * mul / t.cell
			xi := uint32(x >> 8)
			k := len(o.pts) - 2 // where the column before found its xi
			switch {
			case k >= 0 && o.pts[k] == xi:
			case k >= 0 && o.pts[k+1] == xi:
				k++
				o.pts = append(o.pts, xi+1)
			default:
				k += 2
				o.pts = append(o.pts, xi, xi+1)
			}
			o.col[c] = int32(k)<<8 | x&0xFF
		}
	}
}

// lerpRow hashes lattice row yi and interpolates it to every column.
//
//hdvlint:noalloc
func (o *octave) lerpRow(dst []int32, yi, seed uint32) {
	lat := o.lat[:len(o.pts)]
	for k, x := range o.pts {
		lat[k] = noiseByte(x, yi, seed)
	}
	dst = dst[:len(o.col)]
	for c, p := range o.col {
		k := p >> 8
		a := lat[k]
		dst[c] = a + (lat[k+1]-a)*(p&0xFF)>>8
	}
}

// seek makes top and bot the lattice rows around 8.8 row coordinate y,
// computing only the rows that were not already there.
//
//hdvlint:noalloc
func (o *octave) seek(y int32, seed uint32) {
	yi := uint32(y >> 8)
	if o.live && yi == o.yi {
		return
	}
	if o.live && yi == o.yi+1 {
		o.top, o.bot = o.bot, o.top
	} else {
		o.lerpRow(o.top, yi, seed)
	}
	o.lerpRow(o.bot, yi+1, seed)
	o.yi, o.live = yi, true
}

// row returns the scratch row with the texture's shade at virtual row py
// in columns [c0, c1).
//
//hdvlint:noalloc
func (t *texture) row(c0, c1 int, py int32) []int32 {
	if c0 >= c1 {
		return t.n
	}
	y1, y2 := py*256/t.cell, py*512/t.cell
	o1, o2 := &t.oct[0], &t.oct[1]
	o1.seek(y1, t.seed)
	o2.seek(y2, t.seed^0x9E3779B9)
	fy1, fy2 := y1&0xFF, y2&0xFF
	dst, shade := t.n[c0:c1], &t.shade
	top1, bot1 := o1.top[c0:c1], o1.bot[c0:c1]
	top2, bot2 := o2.top[c0:c1], o2.bot[c0:c1]
	for i := range dst {
		a, b := top1[i], top2[i]
		a += (bot1[i] - a) * fy1 >> 8
		b += (bot2[i] - b) * fy2 >> 8
		dst[i] = shade[uint8((2*a+b)/3)]
	}
	return t.n
}

// paint writes base plus the texture's shade at virtual row py to
// columns [c0, c1) of the pixel row dst.
//
//hdvlint:noalloc
func (t *texture) paint(dst []byte, c0, c1 int, py, base int32) {
	n := t.row(c0, c1, py)
	for c := c0; c < c1; c++ {
		dst[c] = clampB(base + n[c])
	}
}

// colOf returns the first pixel column whose virtual column is at least v
// (Width if there is none): vx[c] >= v exactly when c >= colOf(v).
func (g *Generator) colOf(v int32) int {
	if v <= 0 {
		return 0
	}
	return min((int(v)*g.Width+1919)/1920, g.Width)
}

// pointNoise is valueNoise for samples that do not follow a column map
// (blue_sky's rotated rows): it keeps the four corners of the last cell
// and re-hashes only what a move to another cell uncovers.
type pointNoise struct {
	seed               uint32
	xi, yi             uint32
	n00, n10, n01, n11 int32
}

func newPointNoise(seed uint32) pointNoise {
	p := pointNoise{seed: seed}
	p.move(0, 0) // not one right of the zero value's cell: hashes all four
	return p
}

//hdvlint:noalloc
func (p *pointNoise) move(xi, yi uint32) {
	if yi == p.yi && xi == p.xi+1 {
		p.n00, p.n01 = p.n10, p.n11
	} else {
		p.n00, p.n01 = noiseByte(xi, yi, p.seed), noiseByte(xi, yi+1, p.seed)
	}
	p.n10, p.n11 = noiseByte(xi+1, yi, p.seed), noiseByte(xi+1, yi+1, p.seed)
	p.xi, p.yi = xi, yi
}

// at is valueNoise(x, y, seed).
//
//hdvlint:noalloc
func (p *pointNoise) at(x, y int32) int32 {
	if xi, yi := uint32(x>>8), uint32(y>>8); xi != p.xi || yi != p.yi {
		p.move(xi, yi)
	}
	fx, fy := x&0xFF, y&0xFF
	top := p.n00 + (p.n10-p.n00)*fx>>8
	bot := p.n01 + (p.n11-p.n01)*fx>>8
	return top + (bot-top)*fy>>8
}

// divisor divides int32 values by one fixed int32 d >= 2, truncating
// toward zero like /, with a multiplication: for every 32-bit n,
// n/d = (ceil(2⁶⁴/d) * n) >> 64 (Lemire, Kaser and Kurz, "Faster
// remainder by direct computation", 2019).
type divisor uint64

func newDivisor(d int32) divisor { return divisor(^uint64(0)/uint64(d) + 1) }

func (m divisor) div(n int32) int32 {
	if n < 0 {
		q, _ := bits.Mul64(uint64(m), uint64(-int64(n)))
		return -int32(q)
	}
	q, _ := bits.Mul64(uint64(m), uint64(n))
	return int32(q)
}
