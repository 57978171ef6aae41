package mpeg

import (
	"fmt"
	"math"

	"hdvideobench/internal/bitstream"
	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/dct"
	"hdvideobench/internal/entropy"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/interp"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/motion"
	"hdvideobench/internal/quant"
	"hdvideobench/internal/swar"
)

// Encoder is the MPEG-class encoder of one profile (the paper's
// FFmpeg-mpeg2 or Xvid role): codec.FrameEncoder driving this package's
// slice coder. Each slice is a stack of per-row coders (rowEnc) whose
// bitstreams are concatenated bit-exactly, so the rows can run on a
// wavefront — see EncodeSlice.
type Encoder struct {
	*codec.FrameEncoder
	profile
	cfg codec.Config

	prevRef, lastRef *frame.Frame // the frame's references, coding order
	slices           []*sliceEnc  // per-slice coders, reused across frames
}

// sliceEnc codes one slice as a stack of per-row coders. Slices of one
// frame write disjoint macroblock rows of the shared reconstruction, so
// concurrent slices never touch each other's state; rows inside a slice
// only couple through the parity MV predictor buffers, whose access
// pattern is exactly the wavefront dependency shape.
type sliceEnc struct {
	e    *Encoder
	bw   *bitstream.Writer // final slice stream: row writers concatenated
	rows []*rowEnc         // per-row coders, index = row within the slice

	// mvBuf is the pair of full-pel MV predictor buffers the rows
	// alternate between: row y writes mvBuf[y%2] and reads the row
	// above from mvBuf[(y+1)%2]. Reads are {x-1 same row, x and x+1 row
	// above} — the wavefront dependency rule — so under a wavefront
	// runner every access is ordered by the front's progress counters.
	// Every macroblock mode writes its entry (intra ones a zero vector,
	// in encodeIntraMB), so no value outlives the frame that wrote it.
	mvBuf [2][]motion.MV
}

// rowEnc carries the state of one macroblock row: the row's bitstream
// plus every predictor that resets at the row boundary. One goroutine
// owns a row for its whole left-to-right walk (serially or on the
// wavefront), so none of this needs synchronization.
type rowEnc struct {
	e  *Encoder
	bw *bitstream.Writer

	pred codec.PredMB

	hint *motion.Field // cross-rung seed field for the frame, or nil

	// The slice's quantizer and DC predictor reset, set by EncodeSlice;
	// int32 so that they pack with the predictors.
	q, dcInit int32
	dcPred    [3]int32
	fwdPred   motion.MV   // forward MV predictor within the row, luma units
	bwdPred   motion.MV   // backward MV predictor within the row
	mvRow     []motion.MV // full-pel MVs of the current row (predictor source)
	mvAbove   []motion.MV // full-pel MVs of the row above

	epzsPreds [4]motion.MV // scratch for the EPZS candidate list (3 spatial + hint)
}

// NewEncoder returns an encoder for cfg in the profile of id:
// container.CodecMPEG2 or container.CodecMPEG4.
func NewEncoder(cfg codec.Config, id container.Codec) (*Encoder, error) {
	p, name, ok := profileFor(id)
	if !ok {
		return nil, fmt.Errorf("mpeg: codec %v is neither MPEG-2 nor MPEG-4", id)
	}
	e := &Encoder{profile: p, cfg: cfg}
	var err error
	if e.FrameEncoder, err = codec.NewFrameEncoder(name, cfg, id, 0, 2, e); err != nil {
		return nil, err
	}
	spans := codec.SliceRows(cfg.MBRows(), cfg.Slices)
	e.slices = make([]*sliceEnc, len(spans))
	hint := cfg.Width*cfg.Height/4/len(spans) + 64
	rowHint := cfg.Width*cfg.Height/4/cfg.MBRows() + 64
	for i := range e.slices {
		s := &sliceEnc{
			e:    e,
			bw:   bitstream.NewWriter(hint),
			rows: make([]*rowEnc, spans[i].Rows),
		}
		s.mvBuf[0] = make([]motion.MV, cfg.MBCols())
		s.mvBuf[1] = make([]motion.MV, cfg.MBCols())
		for r := range s.rows {
			s.rows[r] = &rowEnc{e: e, bw: bitstream.NewWriter(rowHint)}
		}
		e.slices[i] = s
	}
	return e, nil
}

// The codec.SliceEncoder hooks. P pictures predict from the last
// reference, B pictures from the two around them; payloads carry the
// MPEG-scale quantizer as it is; there is no in-loop filter; searches
// score sub-pel candidates against the half planes NewReference builds.

func (e *Encoder) BeginFrame(refs *codec.RefList, _ int) {
	e.lastRef, e.prevRef = refs.Get(0), refs.Get(1)
}
func (e *Encoder) WireQ(q int) int            { return q }
func (e *Encoder) EndFrame(*frame.Frame, int) {}

// NewReference builds the half planes the profile's searches read:
// 6-tap for ASP's quarter-pel, bilinear for MPEG-2's half-pel.
func (e *Encoder) NewReference(recon *frame.Frame) {
	if e.asp {
		interp.BuildHalfPel6(recon, e.cfg.Kernels)
		return
	}
	interp.BuildHalfPelBilin(recon, e.cfg.Kernels)
}

// EncodeSlice implements codec.SliceEncoder: the macroblock rows
// [span.Row, span.Row+span.Rows) with all prediction state starting from
// the slice-boundary reset.
//
// Each row is coded by its own rowEnc into its own bitstream; the row
// streams are concatenated bit-exactly afterwards, so the slice bytes
// are those of a single raster-order pass regardless of schedule. On a
// wavefront runner the rows run concurrently in dependency order — which
// is exactly the order the EPZS predictor reads (left, above,
// above-right) require.
func (e *Encoder) EncodeSlice(i int, src, recon *frame.Frame, ftype container.FrameType, span codec.SliceSpan,
	q int, wf codec.WavefrontRunner, tap, hint *motion.Field) []byte {
	s := e.slices[i]
	dcInit := e.dcInit(int32(q))
	for _, r := range s.rows {
		r.q, r.dcInit, r.hint = int32(q), dcInit, hint
	}
	// Row 0 reads a zeroed "row above" (the slice-boundary reset); every
	// later row fully overwrites its write buffer before it is read.
	for x := range s.mvBuf[1] {
		s.mvBuf[1][x] = motion.MV{}
	}
	codec.RunWavefront(wf, span.Rows, e.cfg.MBCols(), func(x, y int) bool {
		r := s.rows[y]
		if x == 0 {
			r.bw.Reset()
			r.resetDCPred()
			r.fwdPred, r.bwdPred = motion.MV{}, motion.MV{}
			r.mvRow = s.mvBuf[y%2]
			r.mvAbove = s.mvBuf[(y+1)%2]
		}
		mby := span.Row + y
		switch ftype {
		case container.FrameI:
			r.encodeIntraMB(src, recon, x, mby)
		case container.FrameP:
			r.encodePMB(src, recon, x, mby)
		default:
			r.encodeBMB(src, recon, x, mby)
		}
		if tap != nil {
			// Winning full-pel vector of the macroblock just coded:
			// disjoint cells, safe under any schedule.
			tap.Set(x, mby, r.mvRow[x])
		}
		return true
	})
	s.bw.Reset()
	for y := 0; y < span.Rows; y++ {
		s.bw.AppendWriter(s.rows[y].bw)
	}
	s.bw.AlignByte()
	return s.bw.Bytes()
}

func (s *rowEnc) resetDCPred() {
	s.dcPred = [3]int32{s.dcInit, s.dcInit, s.dcInit}
}

// lambda is the λ of the motion cost (SAD units per estimated bit): the
// quantizer scale itself.
func (s *rowEnc) lambda() int { return int(s.q) }

// --- intra ------------------------------------------------------------------

// encodeIntraMB codes all six blocks of a macroblock in intra mode.
//
//hdvlint:noalloc
func (s *rowEnc) encodeIntraMB(src, recon *frame.Frame, mbx, mby int) {
	px, py := mbx*16, mby*16
	q := s.q
	// Luma blocks Y0..Y3.
	for i := 0; i < 4; i++ {
		off := src.YOrigin + (py+8*(i/2))*src.YStride + px + 8*(i%2)
		roff := recon.YOrigin + (py+8*(i/2))*recon.YStride + px + 8*(i%2)
		s.intraBlock(src.Y, off, src.YStride, recon.Y, roff, recon.YStride, q, 0)
	}
	cx, cy := px/2, py/2
	coff := src.COrigin + cy*src.CStride + cx
	croff := recon.COrigin + cy*recon.CStride + cx
	s.intraBlock(src.Cb, coff, src.CStride, recon.Cb, croff, recon.CStride, q, 1)
	s.intraBlock(src.Cr, coff, src.CStride, recon.Cr, croff, recon.CStride, q, 2)
	s.mvRow[mbx] = motion.MV{}
}

// intraBlock transforms, quantizes, writes and reconstructs one 8×8 intra
// block. comp selects the DC predictor (0=Y, 1=Cb, 2=Cr).
//
//hdvlint:noalloc
func (s *rowEnc) intraBlock(plane []byte, off, stride int, rec []byte, roff, rstride int, q int32, comp int) {
	var blk [64]int32
	codec.LoadBlock8(&blk, plane, off, stride)
	dct.Forward8(&blk)
	if s.e.asp {
		quant.Mpeg4QuantIntra(&blk, q)
	} else {
		quant.Mpeg2QuantIntra(&blk, q)
	}

	entropy.WriteSE(s.bw, blk[0]-s.dcPred[comp])
	s.dcPred[comp] = blk[0]
	codec.WriteRunLevels(s.bw, &blk, 1, eob8)
	reconIntraBlock(rec, roff, rstride, &blk, q, s.e.asp)
}

// --- motion search -----------------------------------------------------------

// sadMB computes SAD between the current 16×16 luma block and a prediction
// buffer using the configured kernel set.
//
//hdvlint:noalloc
func (s *rowEnc) sadMB(src *frame.Frame, px, py int, pred []byte) int {
	off := src.YOrigin + py*src.YStride + px
	if s.e.cfg.Kernels == kernel.SWAR {
		return swar.SADBlock(src.Y[off:], src.YStride, pred, 16, 16, 16)
	}
	return codec.SADBlockBytes(src.Y, off, src.YStride, pred, 0, 16, 16, 16)
}

// search runs EPZS on the w×h luma block at (px, py) against ref, refines
// the full-pel winner in the profile's sub-pel units, fills pred (stride
// 16) with the winning prediction and returns the vector and its SAD.
// predMV is the row's vector predictor; the spatial EPZS candidates (and
// the cross-rung hint) join only when usePreds is set — 4MV's 8×8
// searches start from the 16×16 winner alone.
//
// Hot-path shape: the full-pel stage threads its best-so-far cost into
// the SAD kernel (motion.Estimator.CostMax inside EPZS) and SADs straight
// against the padded reference (no copy-then-SAD); the sub-pel candidates
// score against the reference's precomputed half planes with early
// termination — no per-candidate interpolation — and only the winner is
// materialized. Every comparison is the same strict `sad < best` as the
// per-block path, so decisions and bitstream bytes are unchanged (pinned
// by the root equivalence matrix).
func (s *rowEnc) search(src, ref *frame.Frame, px, py, w, h, mbx int, predMV motion.MV, pred []byte, usePreds bool) (motion.MV, int) {
	var est motion.Estimator
	est.Kern = s.e.cfg.Kernels
	est.Cur = src.Y
	est.CurOff = src.YOrigin + py*src.YStride + px
	est.CurStride = src.YStride
	est.Ref = ref.Y
	est.RefOrigin = ref.YOrigin
	est.RefStride = ref.YStride
	est.PosX, est.PosY = px, py
	est.W, est.H = w, h
	est.Lambda = s.lambda()
	est.Pred = s.e.fullPel(predMV)
	est.Window(s.e.cfg.SearchRange, s.e.cfg.Width, s.e.cfg.Height, codec.RefPad)

	var preds []motion.MV
	if usePreds {
		preds = s.epzsPreds[:0]
		if mbx > 0 {
			preds = append(preds, s.mvRow[mbx-1])
		}
		preds = append(preds, s.mvAbove[mbx])
		if mbx+1 < len(s.mvAbove) {
			preds = append(preds, s.mvAbove[mbx+1])
		}
		if h := s.hint; h != nil {
			// Cross-rung seed: the full-resolution rung's vector for
			// this macroblock, scaled to our geometry. Near-optimal, so
			// the early-termination threshold usually fires almost
			// immediately.
			preds = append(preds, h.Sample(mbx, py/16, s.e.cfg.Width, s.e.cfg.Height))
		}
	}
	exitT := 2 * int(s.q) * w * h / 16
	if s.hint != nil {
		// A trusted cross-rung seed is in the candidate list, so accept a
		// looser match without the diamond walk (EPZS's adaptive-threshold
		// move); the ladder PSNR guard bounds the quality cost.
		exitT *= 4
	}
	res := est.EPZS(preds, exitT)

	// Sub-pel refinement around the full-pel winner: rings of step
	// unit/2 down to 1 — the eight half-pel neighbours for MPEG-2, a
	// half-pel ring then a quarter-pel ring for ASP.
	unit := int16(2)
	if s.e.asp {
		unit = 4
	}
	best := motion.MV{X: res.MV.X * unit, Y: res.MV.Y * unit}
	bestSAD := res.Cost - est.MVCost(int(res.MV.X), int(res.MV.Y))
	for step := unit / 2; step > 0; step /= 2 {
		center := best
		for dy := -step; dy <= step; dy += step {
			for dx := -step; dx <= step; dx += step {
				if dx == 0 && dy == 0 {
					continue
				}
				mv := motion.MV{X: center.X + dx, Y: center.Y + dy}
				if sad := s.sadSubPel(&est, src, ref, px, py, w, h, mv, bestSAD); sad < bestSAD {
					best, bestSAD = mv, sad
				}
			}
		}
	}
	s.predictLuma(ref, px, py, w, h, best, pred)
	return best, bestSAD
}

// sadSubPel scores one sub-pel candidate against ref's precomputed half
// planes, early-terminating once the partial SAD reaches max. est is the
// search's estimator, already aimed at the block.
func (s *rowEnc) sadSubPel(est *motion.Estimator, src, ref *frame.Frame, px, py, w, h int, mv motion.MV, max int) int {
	ix, fx, iy, fy := s.e.splitMV(mv)
	if s.e.asp {
		so := ref.YOrigin + (py+iy)*ref.YStride + px + ix
		co := src.YOrigin + py*src.YStride + px
		return motion.SADQPel(s.e.cfg.Kernels, src.Y[co:], src.YStride, ref, so, w, h, fx, fy, max)
	}
	est.Ref = interp.BilinPlaneFor(ref, fx, fy)
	return est.SADMax(ix, iy, max)
}

// predictLuma fills dst (stride 16) with the w×h luma prediction for mv
// from ref's precomputed half planes (every encoder reference has them:
// NewReference builds them). The decoder interpolates per block instead;
// the two are bit-exact.
func (s *rowEnc) predictLuma(ref *frame.Frame, px, py, w, h int, mv motion.MV, dst []byte) {
	ix, fx, iy, fy := s.e.splitMV(mv)
	so := ref.YOrigin + (py+iy)*ref.YStride + px + ix
	if s.e.asp {
		interp.LumaPlanes(dst, 16, ref.Y, ref.Hpel6, so, ref.YStride, w, h, fx, fy, s.e.cfg.Kernels)
		return
	}
	swar.CopyBlock(dst, 16, interp.BilinPlaneFor(ref, fx, fy)[so:], ref.YStride, w, h)
}

// search4MV is the ASP 4MV hypothesis: four 8×8 searches seeded from the
// 16×16 winner mv16, their predictions placed in s.pred.YAlt (unused in P
// pictures). It returns the vectors and their cost, mode bias included.
func (s *rowEnc) search4MV(src, ref *frame.Frame, px, py, mbx int, mv16 motion.MV) (mvs [4]motion.MV, cost int) {
	lambda := s.lambda()
	cost = lambda * 8 // mode overhead bias
	prev := s.fwdPred
	for i := range mvs {
		var sad int
		mvs[i], sad = s.search(src, ref, px+8*(i%2), py+8*(i/2), 8, 8, mbx, mv16, s.pred.YAlt[8*(i/2)*16+8*(i%2):], false)
		cost += sad + lambda*mvBits(mvs[i], prev)
		prev = mvs[i]
	}
	return mvs, cost
}

// mvBits is the coded size of mv against the predictor pred.
func mvBits(mv, pred motion.MV) int {
	return entropy.SEBits(int(mv.X)-int(pred.X)) + entropy.SEBits(int(mv.Y)-int(pred.Y))
}

// --- residual ----------------------------------------------------------------

// quantResidual forms, transforms and quantizes the residual of block i
// (Y0..Y3, Cb, Cr) of the macroblock at (px, py) against s.pred into blk
// and returns its count of non-zero levels.
//
//hdvlint:noalloc
func (s *rowEnc) quantResidual(blk *[64]int32, i int, src *frame.Frame, px, py int) int {
	k := s.e.cfg.Kernels
	co := src.COrigin + py/2*src.CStride + px/2
	switch i {
	case 4:
		codec.Residual8(blk, src.Cb, co, src.CStride, s.pred.Cb[:], 0, 8, k)
	case 5:
		codec.Residual8(blk, src.Cr, co, src.CStride, s.pred.Cr[:], 0, 8, k)
	default:
		yo := src.YOrigin + (py+8*(i/2))*src.YStride + px + 8*(i%2)
		codec.Residual8(blk, src.Y, yo, src.YStride, s.pred.Y[:], 8*(i/2)*16+8*(i%2), 16, k)
	}
	dct.Forward8(blk)
	if s.e.asp {
		return quant.Mpeg4QuantInter(blk, s.q)
	}
	return quant.Mpeg2QuantInter(blk, s.q)
}

// codeResidualMB writes CBP and residual blocks for an inter MB, using the
// prediction in s.pred, and reconstructs into recon.
//
//hdvlint:noalloc
func (s *rowEnc) codeResidualMB(src, recon *frame.Frame, px, py int) {
	var blks [6][64]int32
	cbp := 0
	for i := range blks {
		if s.quantResidual(&blks[i], i, src, px, py) > 0 {
			cbp |= 1 << (5 - i)
		}
	}
	s.bw.WriteBits(uint64(cbp), 6)
	for i := range blks {
		if cbp&(1<<(5-i)) != 0 {
			codec.WriteRunLevels(s.bw, &blks[i], 0, eob64)
		}
	}
	reconInterMB(recon, px, py, &s.pred, &blks, cbp, s.q, s.e.asp, s.e.cfg.Kernels)
}

// residualWouldBeZero checks cheaply whether the quantized residual of the
// MB would be all zero for the current prediction (used for skip decisions).
func (s *rowEnc) residualWouldBeZero(src *frame.Frame, px, py int) bool {
	var blk [64]int32
	for i := 0; i < 6; i++ {
		if s.quantResidual(&blk, i, src, px, py) > 0 {
			return false
		}
	}
	return true
}

// writeMVD writes mv as its difference from the predictor pred.
func (s *rowEnc) writeMVD(mv, pred motion.MV) {
	entropy.WriteSE(s.bw, int32(mv.X)-int32(pred.X))
	entropy.WriteSE(s.bw, int32(mv.Y)-int32(pred.Y))
}

// --- P and B macroblocks -------------------------------------------------------

// encodePMB codes one macroblock of a P frame.
//
//hdvlint:noalloc
func (s *rowEnc) encodePMB(src, recon *frame.Frame, mbx, mby int) {
	px, py := mbx*16, mby*16
	ref := s.e.lastRef
	k := s.e.cfg.Kernels

	mv, cost := s.search(src, ref, px, py, 16, 16, mbx, s.fwdPred, s.pred.Y[:], true)
	var mvs4 [4]motion.MV
	cost4 := math.MaxInt
	if s.e.asp {
		// ASP prices the vector's bits and weighs 4MV against it.
		cost += s.lambda() * mvBits(mv, s.fwdPred)
		mvs4, cost4 = s.search4MV(src, ref, px, py, mbx, mv)
	}
	if intraCost := codec.IntraCostMB(src, px, py); intraCost < cost && intraCost < cost4 {
		entropy.WriteUE(s.bw, pIntra)
		s.encodeIntraMB(src, recon, mbx, mby)
		s.fwdPred = motion.MV{}
		return
	}

	if cost4 < cost {
		copy(s.pred.Y[:], s.pred.YAlt[:])
		mcChroma4MV(ref, px, py, &mvs4, s.pred.Cb[:], s.pred.Cr[:], k)
		entropy.WriteUE(s.bw, pInter4V)
		prev := s.fwdPred
		for _, v := range mvs4 {
			s.writeMVD(v, prev)
			prev = v
		}
		mv = mvs4[3]
	} else {
		mcChroma(ref, px, py, mv, s.pred.Cb[:], s.pred.Cr[:], s.e.asp, k)
		// Skip: zero MV and empty residual.
		if mv == (motion.MV{}) && s.residualWouldBeZero(src, px, py) {
			entropy.WriteUE(s.bw, pSkip)
			s.pred.CopyTo(recon, px, py)
			s.fwdPred = motion.MV{}
			s.mvRow[mbx] = motion.MV{}
			s.resetDCPred()
			return
		}
		entropy.WriteUE(s.bw, pInter)
		s.writeMVD(mv, s.fwdPred)
	}
	s.fwdPred = mv
	s.mvRow[mbx] = s.e.fullPel(mv)
	s.codeResidualMB(src, recon, px, py)
	s.resetDCPred()
}

// encodeBMB codes one macroblock of a B frame.
//
//hdvlint:noalloc
func (s *rowEnc) encodeBMB(src, recon *frame.Frame, mbx, mby int) {
	px, py := mbx*16, mby*16
	fwdRef, bwdRef := s.e.prevRef, s.e.lastRef
	k := s.e.cfg.Kernels

	fwdMV, fwdSAD := s.search(src, fwdRef, px, py, 16, 16, mbx, s.fwdPred, s.pred.Y[:], true)
	bwdMV, bwdSAD := s.search(src, bwdRef, px, py, 16, 16, mbx, s.bwdPred, s.pred.YAlt[:], true)

	// Bi-directional hypothesis: average of both predictions.
	var bi [256]byte
	copy(bi[:], s.pred.Y[:])
	interp.Avg(bi[:], 16, s.pred.YAlt[:], 16, 16, 16, k)
	biSAD := s.sadMB(src, px, py, bi[:]) + 2*s.lambda() // extra MV cost

	mode, best := bFwd, fwdSAD
	if bwdSAD < best {
		mode, best = bBwd, bwdSAD
	}
	if biSAD < best {
		mode, best = bBi, biSAD
	}
	if codec.IntraCostMB(src, px, py) < best {
		entropy.WriteUE(s.bw, bIntra)
		s.encodeIntraMB(src, recon, mbx, mby)
		s.fwdPred, s.bwdPred = motion.MV{}, motion.MV{}
		return
	}

	// Assemble final prediction into s.pred.
	switch mode {
	case bBwd:
		copy(s.pred.Y[:], s.pred.YAlt[:])
	case bBi:
		copy(s.pred.Y[:], bi[:])
	}
	mcChromaB(&s.pred, mode, fwdRef, bwdRef, px, py, fwdMV, bwdMV, s.e.asp, k)

	// Skip: forward mode with MV equal to the predictor and no residual.
	if mode == bFwd && fwdMV == s.fwdPred && s.residualWouldBeZero(src, px, py) {
		entropy.WriteUE(s.bw, bSkip)
		s.pred.CopyTo(recon, px, py)
		s.mvRow[mbx] = s.e.fullPel(fwdMV)
		s.resetDCPred()
		return
	}

	entropy.WriteUE(s.bw, uint32(mode))
	if mode == bFwd || mode == bBi {
		s.writeMVD(fwdMV, s.fwdPred)
		s.fwdPred = fwdMV
	}
	if mode == bBwd || mode == bBi {
		s.writeMVD(bwdMV, s.bwdPred)
		s.bwdPred = bwdMV
	}
	if mode == bBwd {
		s.mvRow[mbx] = s.e.fullPel(bwdMV)
	} else {
		s.mvRow[mbx] = s.e.fullPel(fwdMV)
	}
	s.codeResidualMB(src, recon, px, py)
	s.resetDCPred()
}
