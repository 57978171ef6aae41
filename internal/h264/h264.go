// Package h264 implements the HD-VideoBench H.264-class video codec: the
// role x264 (encoder) and FFmpeg's H.264 decoder play in the paper. Toolset:
//
//   - 4×4 integer transform with Hadamard DC transforms,
//   - intra prediction (9-mode-family I4×4 subset and I16×16 V/H/DC/Plane),
//   - variable partitions (16×16, 16×8, 8×16, 8×8) with quarter-pel MC,
//   - multiple reference frames for P pictures,
//   - in-loop deblocking filter,
//   - CABAC-class adaptive binary arithmetic coding (with an Exp-Golomb
//     VLC fallback as the CAVLC-class ablation),
//   - hexagon motion search (the paper's x264 --me hex).
//
// The bitstream is the HDVB container format (see package container);
// encoder and decoder form a complete bit-exact pair. Omitted from the
// standard: sub-8×8 partitions, interlace tools, the four diagonal-family
// I4×4 modes VR/HD/VL/HU and weighted prediction.
//
// Only the slice coders live here — macroblock decisions, the
// record/replay split that keeps entropy coding in raster order under a
// wavefront, the per-frame 4×4 meta grids and the deblocking filter;
// internal/codec's frame drivers call them once per slice and own the
// rest (GOP, rate control, references, payload layout). Reconstruction
// exists once, in recon.go: encoder and decoder both call it, so the
// encoder's reconstruction is the decoder's output by construction.
package h264

import (
	"hdvideobench/internal/bitstream"
	"hdvideobench/internal/entropy"
	"hdvideobench/internal/motion"
)

// Macroblock modes.
const (
	mP16x16 = 0
	mP16x8  = 1
	mP8x16  = 2
	mP8x8   = 3
	mI4x4   = 4
	mI16x16 = 5

	mBFwd = 0
	mBBwd = 1
	mBBi  = 2
	// B intra modes reuse mI4x4/mI16x16 offsets 3 and 4.
	mBI4x4   = 3
	mBI16x16 = 4
)

// Intra 4×4 prediction modes (subset of the standard's nine).
const (
	i4Vertical = iota
	i4Horizontal
	i4DC
	i4DiagDownLeft
	i4DiagDownRight
	numI4Modes
)

// Intra 16×16 prediction modes.
const (
	i16Vertical = iota
	i16Horizontal
	i16DC
	i16Plane
	numI16Modes
)

// Header flag bit 0: entropy mode (0 = CABAC, 1 = VLC). Bits 1-4 carry the
// reference-list size (the encoder's --ref setting), which the decoder
// needs to know whether refIdx syntax is present.
const (
	flagVLC       = 1
	flagRefsShift = 1
	flagRefsMask  = 0xF
)

// frameMeta carries the per-4×4-block state of the frame being coded:
// motion vectors and reference indices for MV prediction and deblocking
// strength, and non-zero flags for deblocking.
type frameMeta struct {
	w4, h4 int
	mv     []motion.MV
	ref    []int8 // ≥0 reference index, -1 intra
	nz     []bool // any non-zero luma coefficients in the 4×4 block
}

func newFrameMeta(width, height int) *frameMeta {
	w4, h4 := width/4, height/4
	return &frameMeta{
		w4: w4, h4: h4,
		mv:  make([]motion.MV, w4*h4),
		ref: make([]int8, w4*h4),
		nz:  make([]bool, w4*h4),
	}
}

func (m *frameMeta) reset() {
	for i := range m.mv {
		m.mv[i] = motion.MV{}
		m.ref[i] = -1
		m.nz[i] = false
	}
}

// setBlock fills a bw4×bh4 region of the grids (coordinates in 4×4 units).
func (m *frameMeta) setBlock(bx4, by4, bw4, bh4 int, mv motion.MV, ref int8) {
	for y := by4; y < by4+bh4; y++ {
		for x := bx4; x < bx4+bw4; x++ {
			m.mv[y*m.w4+x] = mv
			m.ref[y*m.w4+x] = ref
		}
	}
}

// predictMV returns the median MV predictor for a partition whose top-left
// 4×4 block is (bx4, by4) and whose width is bw4 blocks, considering only
// neighbours with the same reference... the simplified rule used here takes
// the component median of left/top/top-right regardless of their reference,
// matching encoder and decoder exactly. top4 is the slice's first 4×4 row:
// neighbours above it belong to a different slice (possibly still being
// coded) and must not be read, so every "above" test clamps against it.
func (m *frameMeta) predictMV(bx4, by4, bw4, top4 int) motion.MV {
	var a, b, c motion.MV
	aOK := bx4 > 0 && m.ref[by4*m.w4+bx4-1] >= 0
	if aOK {
		a = m.mv[by4*m.w4+bx4-1]
	}
	bOK := by4 > top4 && m.ref[(by4-1)*m.w4+bx4] >= 0
	if bOK {
		b = m.mv[(by4-1)*m.w4+bx4]
	}
	cx := bx4 + bw4
	cOK := by4 > top4 && cx < m.w4 && m.ref[(by4-1)*m.w4+cx] >= 0
	if !cOK && by4 > top4 && bx4 > 0 && m.ref[(by4-1)*m.w4+bx4-1] >= 0 {
		c = m.mv[(by4-1)*m.w4+bx4-1]
		cOK = true
	} else if cOK {
		c = m.mv[(by4-1)*m.w4+cx]
	}
	// Standard-style special case: only the left neighbour exists.
	if aOK && !bOK && !cOK {
		return a
	}
	return motion.MedianMV(a, b, c)
}

// contexts groups every adaptive probability model of the CABAC coder.
// Encoder and decoder construct it identically and it adapts in lockstep.
type contexts struct {
	skip      [1]entropy.Prob
	mbType    [4]entropy.Prob
	refIdx    [3]entropy.Prob
	mvd       [8]entropy.Prob
	i4Mode    [3]entropy.Prob
	i16Mode   [2]entropy.Prob
	chromaCBP [2]entropy.Prob
	cbpLuma   [4]entropy.Prob

	cbf     [4]entropy.Prob // coded block flag per block category
	sig     [16]entropy.Prob
	last    [16]entropy.Prob
	level   [8]entropy.Prob
	sigDC   [8]entropy.Prob
	lastDC  [8]entropy.Prob
	levelDC [6]entropy.Prob
}

func newContexts() *contexts {
	c := &contexts{}
	c.reset()
	return c
}

// reset reinitializes every probability model — a slice boundary in the
// entropy layer. Reusing one contexts value across frames keeps the
// macroblock loop allocation-free.
func (c *contexts) reset() {
	entropy.ResetProbs(c.skip[:])
	entropy.ResetProbs(c.mbType[:])
	entropy.ResetProbs(c.refIdx[:])
	entropy.ResetProbs(c.mvd[:])
	entropy.ResetProbs(c.i4Mode[:])
	entropy.ResetProbs(c.i16Mode[:])
	entropy.ResetProbs(c.chromaCBP[:])
	entropy.ResetProbs(c.cbpLuma[:])
	entropy.ResetProbs(c.cbf[:])
	entropy.ResetProbs(c.sig[:])
	entropy.ResetProbs(c.last[:])
	entropy.ResetProbs(c.level[:])
	entropy.ResetProbs(c.sigDC[:])
	entropy.ResetProbs(c.lastDC[:])
	entropy.ResetProbs(c.levelDC[:])
}

// symWriter abstracts the entropy backend: the CABAC range coder or the
// plain Exp-Golomb bit writer (the EntropyVLC ablation). Context arguments
// are ignored by the VLC backend.
type symWriter interface {
	bit(ctx *entropy.Prob, v int)
	bypass(v int)
	ue(ctx []entropy.Prob, escape int, v uint32)
	se(ctx []entropy.Prob, escape int, v int32)
	finish() []byte
	reset() // prepare for a new slice, reusing the buffer
}

type cabacWriter struct{ e *entropy.Encoder }

func (w cabacWriter) bit(ctx *entropy.Prob, v int) { w.e.EncodeBit(ctx, v) }
func (w cabacWriter) bypass(v int)                 { w.e.EncodeBypass(v) }
func (w cabacWriter) ue(ctx []entropy.Prob, escape int, v uint32) {
	w.e.EncodeUE(ctx, escape, v)
}
func (w cabacWriter) se(ctx []entropy.Prob, escape int, v int32) {
	w.e.EncodeSE(ctx, escape, v)
}
func (w cabacWriter) finish() []byte { return w.e.Finish() }
func (w cabacWriter) reset()         { w.e.Reset() }

type vlcWriter struct{ w *bitstream.Writer }

func (w vlcWriter) bit(_ *entropy.Prob, v int) { w.w.WriteBit(v) }
func (w vlcWriter) bypass(v int)               { w.w.WriteBit(v) }
func (w vlcWriter) ue(_ []entropy.Prob, _ int, v uint32) {
	entropy.WriteUE(w.w, v)
}
func (w vlcWriter) se(_ []entropy.Prob, _ int, v int32) {
	entropy.WriteSE(w.w, v)
}
func (w vlcWriter) finish() []byte { return w.w.Bytes() }
func (w vlcWriter) reset()         { w.w.Reset() }

// symDec is the read side of symWriter, as one concrete type so that the
// slice decoder's calls resolve at compile time and the range decoder's
// per-bin path inlines behind them: CABAC is the straight line, the
// EntropyVLC ablation a branch on a flag that never changes within a
// stream. Context arguments are ignored by the VLC backend.
type symDec struct {
	cabac entropy.Decoder
	bits  bitstream.Reader
	vlc   bool
}

// reset points the reader at one slice's bytes.
func (r *symDec) reset(buf []byte, vlc bool) {
	r.vlc = vlc
	if vlc {
		r.bits.Reset(buf)
	} else {
		r.cabac.Reset(buf)
	}
}

func (r *symDec) bit(ctx *entropy.Prob) int {
	if r.vlc {
		return r.bits.ReadBit()
	}
	return r.cabac.DecodeBit(ctx)
}

func (r *symDec) bypass() int {
	if r.vlc {
		return r.bits.ReadBit()
	}
	return r.cabac.DecodeBypass()
}

func (r *symDec) ue(ctx []entropy.Prob, escape int) uint32 {
	if r.vlc {
		return r.bits.ReadUE()
	}
	return r.cabac.DecodeUE(ctx, escape)
}

func (r *symDec) se(ctx []entropy.Prob, escape int) int32 {
	if r.vlc {
		return r.bits.ReadSE()
	}
	return r.cabac.DecodeSE(ctx, escape)
}

// coeffs reads one coefficient block written by writeCoeffs into coefs,
// scan position i at coefs[scan[i]]; see entropy.Decoder.DecodeCoeffs.
func (r *symDec) coeffs(cbf *entropy.Prob, sig, last, lvl []entropy.Prob, scan []int, coefs []int32) bool {
	if r.vlc {
		return readCoeffs(&r.bits, scan, coefs)
	}
	return r.cabac.DecodeCoeffs(cbf, sig, last, lvl, scan, coefs)
}

// err reports a slice that ran out of bytes or held a malformed code.
func (r *symDec) err() error {
	if r.vlc {
		return r.bits.Err()
	}
	return r.cabac.Err()
}
