package mpeg4

import (
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

// Encoder is the MPEG-4 ASP-class encoder (the paper's Xvid role):
// codec.FrameEncoder driving this package's slice coder, whose slices
// are stacks of per-row coders exactly as in package mpeg2.
type Encoder struct {
	*codec.FrameEncoder
	cfg codec.Config

	prevRef, lastRef *frame.Frame // the frame's references, coding order
	slices           []*sliceEnc
}

// sliceEnc codes one slice as a stack of per-row coders. Rows inside a
// slice only couple through the parity MV predictor buffers, whose
// access pattern is exactly the wavefront dependency shape.
type sliceEnc struct {
	e    *Encoder
	bw   *bitstream.Writer // final slice stream: row writers concatenated
	rows []*rowEnc         // per-row coders, index = row within the slice

	// mvBuf is the pair of full-pel MV predictor buffers the rows
	// alternate between: row y of a frame starting at phase p writes
	// mvBuf[(p+y)%2] and reads the row above from mvBuf[(p+y+1)%2].
	// mvPhase carries the alternation across frames, mirroring the
	// serial row swap exactly: B-intra macroblocks leave their mvRow
	// entry unwritten (a deliberate quirk of this encoder), so which
	// physical buffer holds which stale value is part of the bitstream
	// and must match the serial history frame over frame.
	mvBuf   [2][]motion.MV
	mvPhase int
}

// rowEnc carries the state of one macroblock row: the row's bitstream,
// prediction buffers and every predictor that resets at the row
// boundary. One goroutine owns a row for its whole left-to-right walk
// (serially or on the wavefront), so none of this needs synchronization.
type rowEnc struct {
	e  *Encoder
	bw *bitstream.Writer

	pred codec.PredMB

	dcPred  [3]int32
	fwdPred motion.MV // quarter-pel forward predictor within the row
	bwdPred motion.MV
	mvRow   []motion.MV // full-pel MVs for EPZS predictors
	mvAbove []motion.MV

	// Per-slice coding parameters, set by EncodeSlice before any
	// macroblock runs.
	q      int32
	lambda int
	dcInit int32
	hint   *motion.Field // cross-rung seed field for the frame, or nil

	epzsPreds [4]motion.MV // scratch for the EPZS candidate list (+1 hint slot)
}

// NewEncoder returns an MPEG-4 encoder for cfg.
func NewEncoder(cfg codec.Config) (*Encoder, error) {
	e := &Encoder{cfg: cfg}
	var err error
	if e.FrameEncoder, err = codec.NewFrameEncoder("mpeg4", cfg, container.CodecMPEG4, 0, 2, e); err != nil {
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

// The codec.SliceEncoder hooks: references and quantizer byte as in
// package mpeg2; quarter-pel searches score against 6-tap half planes.

func (e *Encoder) BeginFrame(refs *codec.RefList, _ int) {
	e.lastRef, e.prevRef = refs.Get(0), refs.Get(1)
}
func (e *Encoder) WireQ(q int) int                 { return q }
func (e *Encoder) EndFrame(*frame.Frame, int)      {}
func (e *Encoder) NewReference(recon *frame.Frame) { interp.BuildHalfPel6(recon, e.cfg.Kernels) }

// EncodeSlice implements codec.SliceEncoder with slice-local state.
//
// Each row is coded by its own rowEnc into its own bitstream; the row
// streams are concatenated bit-exactly afterwards, so the slice bytes
// are those of a single raster-order pass regardless of schedule. On a
// wavefront runner the rows run concurrently in dependency order — the
// order the EPZS predictor reads (left, above, above-right) require.
func (e *Encoder) EncodeSlice(i int, src, recon *frame.Frame, ftype container.FrameType, span codec.SliceSpan,
	q int, wf codec.WavefrontRunner, tap, hint *motion.Field) []byte {
	s := e.slices[i]
	lambda := lambdaFor(q)
	dcInit := 1024 / quant.Mpeg4DCScaler(int32(q))
	for _, r := range s.rows {
		r.q, r.lambda, r.dcInit, r.hint = int32(q), lambda, dcInit, hint
	}
	p := s.mvPhase
	// Row 0 reads a zeroed "row above" (the slice-boundary reset); the
	// write buffers keep their prior contents — B-intra macroblocks read
	// stale entries through them, matching the serial swap history.
	above0 := s.mvBuf[(p+1)%2]
	for x := range above0 {
		above0[x] = motion.MV{}
	}
	codec.RunWavefront(wf, span.Rows, e.cfg.MBCols(), func(x, y int) bool {
		r := s.rows[y]
		if x == 0 {
			r.bw.Reset()
			r.resetRowState()
			r.mvRow = s.mvBuf[(p+y)%2]
			r.mvAbove = s.mvBuf[(p+y+1)%2]
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
			tap.Set(x, mby, r.mvRow[x])
		}
		return true
	})
	s.mvPhase = (p + span.Rows) % 2
	s.bw.Reset()
	for y := 0; y < span.Rows; y++ {
		s.bw.AppendWriter(s.rows[y].bw)
	}
	s.bw.AlignByte()
	return s.bw.Bytes()
}

func (s *rowEnc) resetRowState() {
	s.dcPred = [3]int32{s.dcInit, s.dcInit, s.dcInit}
	s.fwdPred = motion.MV{}
	s.bwdPred = motion.MV{}
}

func (s *rowEnc) resetDCPred() {
	s.dcPred = [3]int32{s.dcInit, s.dcInit, s.dcInit}
}

// --- intra ------------------------------------------------------------------

//hdvlint:noalloc
func (s *rowEnc) encodeIntraMB(src, recon *frame.Frame, mbx, mby int) {
	px, py := mbx*16, mby*16
	q := s.q
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

//hdvlint:noalloc
func (s *rowEnc) intraBlock(plane []byte, off, stride int, rec []byte, roff, rstride int, q int32, comp int) {
	var blk [64]int32
	codec.LoadBlock8(&blk, plane, off, stride)
	dct.Forward8(&blk)
	quant.Mpeg4QuantIntra(&blk, q)

	entropy.WriteSE(s.bw, blk[0]-s.dcPred[comp])
	s.dcPred[comp] = blk[0]
	codec.WriteRunLevels(s.bw, &blk, 1, eob8)
	reconIntraBlock(rec, roff, rstride, &blk, q)
}

// --- motion search -----------------------------------------------------------

//hdvlint:noalloc
func (s *rowEnc) sadBlock(src *frame.Frame, px, py, w, h int, pred []byte, pstride int) int {
	off := src.YOrigin + py*src.YStride + px
	if s.e.cfg.Kernels == kernel.SWAR {
		return swar.SADBlock(src.Y[off:], src.YStride, pred, pstride, w, h)
	}
	return codec.SADBlockBytes(src.Y, off, src.YStride, pred, 0, pstride, w, h)
}

// searchQPel runs full-pel EPZS then two-stage sub-pel refinement in the
// quarter-pel domain, filling pred (stride 16) with the winning prediction.
// blockW/blockH select 16×16 or 8×8 partitions; (px,py) addresses the
// block, predQ is the quarter-pel MV predictor.
func (s *rowEnc) searchQPel(src, ref *frame.Frame, px, py, blockW, blockH, mbx int, predQ motion.MV, pred []byte, usePreds bool) (motion.MV, int) {
	var est motion.Estimator
	est.Kern = s.e.cfg.Kernels
	est.Cur = src.Y
	est.CurOff = src.YOrigin + py*src.YStride + px
	est.CurStride = src.YStride
	est.Ref = ref.Y
	est.RefOrigin = ref.YOrigin
	est.RefStride = ref.YStride
	est.PosX, est.PosY = px, py
	est.W, est.H = blockW, blockH
	est.Lambda = s.lambda
	est.Pred = motion.MV{X: predQ.X >> 2, Y: predQ.Y >> 2}
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
			// Cross-rung seed from the full-resolution rung, scaled to
			// this geometry (see motion.Field.Sample).
			preds = append(preds, h.Sample(mbx, py/16, s.e.cfg.Width, s.e.cfg.Height))
		}
	}
	exitT := 2 * int(s.q) * blockW * blockH / 16
	if s.hint != nil {
		// A trusted cross-rung seed is in the candidate list, so accept a
		// looser match without the diamond walk (EPZS's adaptive-threshold
		// move); the ladder PSNR guard bounds the quality cost.
		exitT *= 4
	}
	res := est.EPZS(preds, exitT)

	// Sub-pel refinement: half-pel stage (step 2) then quarter-pel
	// (step 1), scored against the reference's precomputed 6-tap half
	// planes with early termination — no per-candidate filtering; only
	// the winner is materialized. Same candidate order and strict
	// comparisons as the per-block path, so output bytes are unchanged.
	bestMV := motion.MV{X: res.MV.X * 4, Y: res.MV.Y * 4}
	bestSAD := res.Cost - est.MVCost(int(res.MV.X), int(res.MV.Y))
	for _, step := range []int{2, 1} {
		center := bestMV
		for dy := -step; dy <= step; dy += step {
			for dx := -step; dx <= step; dx += step {
				if dx == 0 && dy == 0 {
					continue
				}
				mv := motion.MV{X: center.X + int16(dx), Y: center.Y + int16(dy)}
				if sad := s.sadQPel(src, ref, px, py, blockW, blockH, mv, bestSAD); sad < bestSAD {
					bestSAD = sad
					bestMV = mv
				}
			}
		}
	}
	s.mcLumaInto(ref, px, py, blockW, blockH, bestMV, pred)
	return bestMV, bestSAD
}

// sadQPel scores one quarter-pel candidate against the precomputed half
// planes, early-terminating once the partial SAD reaches max.
func (s *rowEnc) sadQPel(src, ref *frame.Frame, px, py, w, h int, mv motion.MV, max int) int {
	ix, fx := codec.SplitQuarter(int(mv.X))
	iy, fy := codec.SplitQuarter(int(mv.Y))
	so := ref.YOrigin + (py+iy)*ref.YStride + px + ix
	co := src.YOrigin + py*src.YStride + px
	return motion.SADQPel(s.e.cfg.Kernels, src.Y[co:], src.YStride, ref, so, w, h, fx, fy, max)
}

// mcLumaInto fills dst (stride 16) with the quarter-pel prediction for mv
// from the reference's half-pel planes (every encoder reference has them —
// BuildHalfPel6 runs when a reconstruction becomes a reference; the
// decoder keeps the per-block QPel path, which is bit-exact with this
// one).
func (s *rowEnc) mcLumaInto(ref *frame.Frame, px, py, w, h int, mv motion.MV, dst []byte) {
	ix, fx := codec.SplitQuarter(int(mv.X))
	iy, fy := codec.SplitQuarter(int(mv.Y))
	so := ref.YOrigin + (py+iy)*ref.YStride + px + ix
	interp.LumaPlanes(dst, 16, ref.Y, ref.Hpel6, so, ref.YStride, w, h, fx, fy, s.e.cfg.Kernels)
}

// --- residual ----------------------------------------------------------------

// codeResidualMB writes CBP and residual blocks for an inter MB, using the
// prediction in s.pred, and reconstructs into recon.
//
//hdvlint:noalloc
func (s *rowEnc) codeResidualMB(src, recon *frame.Frame, px, py int) {
	q := s.q
	var blks [6][64]int32
	cbp := 0
	for i := 0; i < 4; i++ {
		co := src.YOrigin + (py+8*(i/2))*src.YStride + px + 8*(i%2)
		po := 8*(i/2)*16 + 8*(i%2)
		codec.Residual8(&blks[i], src.Y, co, src.YStride, s.pred.Y[:], po, 16, s.e.cfg.Kernels)
		dct.Forward8(&blks[i])
		if quant.Mpeg4QuantInter(&blks[i], q) > 0 {
			cbp |= 1 << (5 - i)
		}
	}
	cx, cy := px/2, py/2
	co := src.COrigin + cy*src.CStride + cx
	codec.Residual8(&blks[4], src.Cb, co, src.CStride, s.pred.Cb[:], 0, 8, s.e.cfg.Kernels)
	dct.Forward8(&blks[4])
	if quant.Mpeg4QuantInter(&blks[4], q) > 0 {
		cbp |= 2
	}
	codec.Residual8(&blks[5], src.Cr, co, src.CStride, s.pred.Cr[:], 0, 8, s.e.cfg.Kernels)
	dct.Forward8(&blks[5])
	if quant.Mpeg4QuantInter(&blks[5], q) > 0 {
		cbp |= 1
	}

	s.bw.WriteBits(uint64(cbp), 6)
	for i := 0; i < 6; i++ {
		if cbp&(1<<(5-i)) != 0 {
			codec.WriteRunLevels(s.bw, &blks[i], 0, eob64)
		}
	}
	reconInterMB(recon, px, py, &s.pred, &blks, cbp, q, s.e.cfg.Kernels)
}

func (s *rowEnc) residualWouldBeZero(src *frame.Frame, px, py int) bool {
	q := s.q
	var blk [64]int32
	for i := 0; i < 4; i++ {
		co := src.YOrigin + (py+8*(i/2))*src.YStride + px + 8*(i%2)
		po := 8*(i/2)*16 + 8*(i%2)
		codec.Residual8(&blk, src.Y, co, src.YStride, s.pred.Y[:], po, 16, s.e.cfg.Kernels)
		dct.Forward8(&blk)
		if quant.Mpeg4QuantInter(&blk, q) > 0 {
			return false
		}
	}
	cx, cy := px/2, py/2
	co := src.COrigin + cy*src.CStride + cx
	codec.Residual8(&blk, src.Cb, co, src.CStride, s.pred.Cb[:], 0, 8, s.e.cfg.Kernels)
	dct.Forward8(&blk)
	if quant.Mpeg4QuantInter(&blk, q) > 0 {
		return false
	}
	codec.Residual8(&blk, src.Cr, co, src.CStride, s.pred.Cr[:], 0, 8, s.e.cfg.Kernels)
	dct.Forward8(&blk)
	return quant.Mpeg4QuantInter(&blk, q) == 0
}

// --- P macroblocks -------------------------------------------------------------

func mvBitsQ(mv, pred motion.MV) int {
	return entropy.SEBits(int(mv.X)-int(pred.X)) + entropy.SEBits(int(mv.Y)-int(pred.Y))
}

//hdvlint:noalloc
func (s *rowEnc) encodePMB(src, recon *frame.Frame, mbx, mby int) {
	px, py := mbx*16, mby*16
	ref := s.e.lastRef
	lambda := s.lambda

	// 16×16 hypothesis.
	mv16, sad16 := s.searchQPel(src, ref, px, py, 16, 16, mbx, s.fwdPred, s.pred.Y[:], true)
	cost16 := sad16 + lambda*mvBitsQ(mv16, s.fwdPred)

	// 4MV hypothesis: four 8×8 searches seeded from the 16×16 winner.
	var mvs4 [4]motion.MV
	var pred4 [256]byte
	cost4 := lambda * 8 // mode overhead bias
	prev := s.fwdPred
	for i := 0; i < 4; i++ {
		bx := px + 8*(i%2)
		by := py + 8*(i/2)
		var sub [256]byte
		mv, sad := s.searchQPel(src, ref, bx, by, 8, 8, mbx, mv16, sub[:], false)
		mvs4[i] = mv
		cost4 += sad + lambda*mvBitsQ(mv, prev)
		prev = mv
		// Place into the 16×16 prediction layout.
		for r := 0; r < 8; r++ {
			copy(pred4[(8*(i/2)+r)*16+8*(i%2):(8*(i/2)+r)*16+8*(i%2)+8], sub[r*16:r*16+8])
		}
	}

	intraCost := codec.IntraCostMB(src, px, py)

	if intraCost < cost16 && intraCost < cost4 {
		entropy.WriteUE(s.bw, pIntra)
		s.encodeIntraMB(src, recon, mbx, mby)
		s.fwdPred = motion.MV{}
		s.mvRow[mbx] = motion.MV{}
		return
	}

	if cost4 < cost16 {
		copy(s.pred.Y[:], pred4[:])
		mcChroma4MV(ref, px, py, &mvs4, s.pred.Cb[:], s.pred.Cr[:], s.e.cfg.Kernels)
		entropy.WriteUE(s.bw, pInter4V)
		prev = s.fwdPred
		for i := 0; i < 4; i++ {
			entropy.WriteSE(s.bw, int32(mvs4[i].X)-int32(prev.X))
			entropy.WriteSE(s.bw, int32(mvs4[i].Y)-int32(prev.Y))
			prev = mvs4[i]
		}
		s.fwdPred = mvs4[3]
		s.mvRow[mbx] = motion.MV{X: mvs4[3].X >> 2, Y: mvs4[3].Y >> 2}
		s.codeResidualMB(src, recon, px, py)
		s.resetDCPred()
		return
	}

	mcChroma(ref, px, py, mv16, s.pred.Cb[:], s.pred.Cr[:], s.e.cfg.Kernels)
	if mv16 == (motion.MV{}) && s.residualWouldBeZero(src, px, py) {
		entropy.WriteUE(s.bw, pSkip)
		s.pred.CopyTo(recon, px, py)
		s.fwdPred = motion.MV{}
		s.mvRow[mbx] = motion.MV{}
		s.resetDCPred()
		return
	}

	entropy.WriteUE(s.bw, pInter)
	entropy.WriteSE(s.bw, int32(mv16.X)-int32(s.fwdPred.X))
	entropy.WriteSE(s.bw, int32(mv16.Y)-int32(s.fwdPred.Y))
	s.fwdPred = mv16
	s.mvRow[mbx] = motion.MV{X: mv16.X >> 2, Y: mv16.Y >> 2}
	s.codeResidualMB(src, recon, px, py)
	s.resetDCPred()
}

// --- B macroblocks -------------------------------------------------------------

//hdvlint:noalloc
func (s *rowEnc) encodeBMB(src, recon *frame.Frame, mbx, mby int) {
	px, py := mbx*16, mby*16
	fwdRef, bwdRef := s.e.prevRef, s.e.lastRef
	lambda := s.lambda

	fwdMV, fwdSAD := s.searchQPel(src, fwdRef, px, py, 16, 16, mbx, s.fwdPred, s.pred.Y[:], true)
	bwdMV, bwdSAD := s.searchQPel(src, bwdRef, px, py, 16, 16, mbx, s.bwdPred, s.pred.YAlt[:], true)

	var bi [256]byte
	copy(bi[:], s.pred.Y[:])
	interp.Avg(bi[:], 16, s.pred.YAlt[:], 16, 16, 16, s.e.cfg.Kernels)
	biSAD := s.sadBlock(src, px, py, 16, 16, bi[:], 16) + 2*lambda

	intraCost := codec.IntraCostMB(src, px, py)

	mode := bFwd
	best := fwdSAD
	if bwdSAD < best {
		mode, best = bBwd, bwdSAD
	}
	if biSAD < best {
		mode, best = bBi, biSAD
	}
	if intraCost < best {
		entropy.WriteUE(s.bw, bIntra)
		s.encodeIntraMB(src, recon, mbx, mby)
		s.fwdPred = motion.MV{}
		s.bwdPred = motion.MV{}
		return
	}

	switch mode {
	case bBwd:
		copy(s.pred.Y[:], s.pred.YAlt[:])
	case bBi:
		copy(s.pred.Y[:], bi[:])
	}
	mcChromaB(&s.pred, mode, fwdRef, bwdRef, px, py, fwdMV, bwdMV, s.e.cfg.Kernels)

	if mode == bFwd && fwdMV == s.fwdPred && s.residualWouldBeZero(src, px, py) {
		entropy.WriteUE(s.bw, bSkip)
		s.pred.CopyTo(recon, px, py)
		s.mvRow[mbx] = motion.MV{X: fwdMV.X >> 2, Y: fwdMV.Y >> 2}
		s.resetDCPred()
		return
	}

	entropy.WriteUE(s.bw, uint32(mode))
	if mode == bFwd || mode == bBi {
		entropy.WriteSE(s.bw, int32(fwdMV.X)-int32(s.fwdPred.X))
		entropy.WriteSE(s.bw, int32(fwdMV.Y)-int32(s.fwdPred.Y))
		s.fwdPred = fwdMV
	}
	if mode == bBwd || mode == bBi {
		entropy.WriteSE(s.bw, int32(bwdMV.X)-int32(s.bwdPred.X))
		entropy.WriteSE(s.bw, int32(bwdMV.Y)-int32(s.bwdPred.Y))
		s.bwdPred = bwdMV
	}
	switch mode {
	case bFwd, bBi:
		s.mvRow[mbx] = motion.MV{X: fwdMV.X >> 2, Y: fwdMV.Y >> 2}
	default:
		s.mvRow[mbx] = motion.MV{X: bwdMV.X >> 2, Y: bwdMV.Y >> 2}
	}
	s.codeResidualMB(src, recon, px, py)
	s.resetDCPred()
}
