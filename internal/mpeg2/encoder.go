package mpeg2

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

// Encoder is the MPEG-2-class encoder (the paper's FFmpeg-mpeg2 role):
// codec.FrameEncoder driving this package's slice coder. Each slice is a
// stack of per-row coders (rowEnc) whose bitstreams are concatenated
// bit-exactly, so the rows can run on a wavefront — see EncodeSlice.
type Encoder struct {
	*codec.FrameEncoder
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

	lambda int           // motion λ derived from q
	hint   *motion.Field // cross-rung seed field for the frame, or nil

	q       int32 // quantizer of the row's slice (here, it packs with dcPred)
	dcPred  [3]int32
	fwdPred motion.MV   // half-pel forward MV predictor within the row
	bwdPred motion.MV   // half-pel backward MV predictor within the row
	mvRow   []motion.MV // full-pel MVs of the current row (predictor source)
	mvAbove []motion.MV // full-pel MVs of the row above

	epzsPreds [4]motion.MV // scratch for the EPZS candidate list (3 spatial + hint)
}

// NewEncoder returns an MPEG-2 encoder for cfg.
func NewEncoder(cfg codec.Config) (*Encoder, error) {
	e := &Encoder{cfg: cfg}
	var err error
	if e.FrameEncoder, err = codec.NewFrameEncoder("mpeg2", cfg, container.CodecMPEG2, 0, 2, e); err != nil {
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
// score half-pel candidates against bilinear planes.

func (e *Encoder) BeginFrame(refs *codec.RefList, _ int) {
	e.lastRef, e.prevRef = refs.Get(0), refs.Get(1)
}
func (e *Encoder) WireQ(q int) int                 { return q }
func (e *Encoder) EndFrame(*frame.Frame, int)      {}
func (e *Encoder) NewReference(recon *frame.Frame) { interp.BuildHalfPelBilin(recon, e.cfg.Kernels) }

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
	lambda := lambdaFor(q)
	for _, r := range s.rows {
		r.q, r.lambda, r.hint = int32(q), lambda, hint
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
			r.resetRowState()
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

func (s *rowEnc) resetRowState() {
	s.dcPred = [3]int32{dcPredInit, dcPredInit, dcPredInit}
	s.fwdPred = motion.MV{}
	s.bwdPred = motion.MV{}
}

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
	quant.Mpeg2QuantIntra(&blk, q)

	entropy.WriteSE(s.bw, blk[0]-s.dcPred[comp])
	s.dcPred[comp] = blk[0]
	codec.WriteRunLevels(s.bw, &blk, 1, eob8)
	reconIntraBlock(rec, roff, rstride, &blk, q)
}

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

// setupEstimator points the shared estimator at the current luma block.
func (s *rowEnc) setupEstimator(est *motion.Estimator, src, ref *frame.Frame, px, py int, predFull motion.MV) {
	est.Kern = s.e.cfg.Kernels
	est.Cur = src.Y
	est.CurOff = src.YOrigin + py*src.YStride + px
	est.CurStride = src.YStride
	est.Ref = ref.Y
	est.RefOrigin = ref.YOrigin
	est.RefStride = ref.YStride
	est.PosX, est.PosY = px, py
	est.W, est.H = 16, 16
	est.Lambda = s.lambda
	est.Pred = predFull
	est.Window(s.e.cfg.SearchRange, s.e.cfg.Width, s.e.cfg.Height, codec.RefPad)
}

// searchLuma runs EPZS + half-pel refinement against ref and returns the
// best half-pel MV, its SAD, and fills pred with the winning prediction.
//
// Hot-path shape: the full-pel stage threads its best-so-far cost into
// the SAD kernel (motion.Estimator.CostMax inside EPZS), the full-pel
// baseline SADs directly against the padded reference (no copy-then-SAD),
// and the eight half-pel candidates score straight against the
// reference's precomputed bilinear half planes with early termination —
// no per-candidate interpolation. Every comparison is the same strict
// `sad < best` as the per-block path, so decisions and bitstream bytes
// are unchanged (pinned by the root equivalence matrix).
func (s *rowEnc) searchLuma(src, ref *frame.Frame, px, py, mbx int, predHalf motion.MV, pred []byte) (motion.MV, int) {
	var est motion.Estimator
	predFull := motion.MV{X: predHalf.X >> 1, Y: predHalf.Y >> 1}
	s.setupEstimator(&est, src, ref, px, py, predFull)

	preds := s.epzsPreds[:0]
	if mbx > 0 {
		preds = append(preds, s.mvRow[mbx-1])
	}
	preds = append(preds, s.mvAbove[mbx])
	if mbx+1 < len(s.mvAbove) {
		preds = append(preds, s.mvAbove[mbx+1])
	}
	if h := s.hint; h != nil {
		// Cross-rung seed: the full-resolution rung's vector for this
		// macroblock, scaled to our geometry. Near-optimal, so the
		// early-termination threshold usually fires almost immediately.
		preds = append(preds, h.Sample(mbx, py/16, s.e.cfg.Width, s.e.cfg.Height))
	}
	exitT := 2 * int(s.q) * 16
	if s.hint != nil {
		// A trusted cross-rung seed is in the candidate list, so accept a
		// looser match without the diamond walk (EPZS's adaptive-threshold
		// move); the ladder PSNR guard bounds the quality cost.
		exitT *= 4
	}
	res := est.EPZS(preds, exitT)

	// Half-pel refinement around the full-pel winner, scored against the
	// bilinear half planes.
	bestMV := motion.MV{X: res.MV.X * 2, Y: res.MV.Y * 2}
	bestSAD := res.Cost - est.MVCost(int(res.MV.X), int(res.MV.Y))
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			hx := int(res.MV.X)*2 + dx
			hy := int(res.MV.Y)*2 + dy
			ix, fx := codec.SplitHalf(hx)
			iy, fy := codec.SplitHalf(hy)
			est.Ref = interp.BilinPlaneFor(ref, fx, fy)
			if sad := est.SADMax(ix, iy, bestSAD); sad < bestSAD {
				bestSAD = sad
				bestMV = motion.MV{X: int16(hx), Y: int16(hy)}
			}
		}
	}

	// Materialize only the winning prediction, straight from its plane.
	ix, fx := codec.SplitHalf(int(bestMV.X))
	iy, fy := codec.SplitHalf(int(bestMV.Y))
	so := ref.YOrigin + (py+iy)*ref.YStride + px + ix
	swar.CopyBlock(pred, 16, interp.BilinPlaneFor(ref, fx, fy)[so:], ref.YStride, 16, 16)
	return bestMV, bestSAD
}

// codeResidualMB writes CBP and residual blocks for an inter MB, using the
// prediction in s.pred, and reconstructs into recon.
//
//hdvlint:noalloc
func (s *rowEnc) codeResidualMB(src, recon *frame.Frame, px, py int) {
	q := s.q
	// First pass: find CBP.
	var blks [6][64]int32
	cbp := 0
	for i := 0; i < 4; i++ {
		co := src.YOrigin + (py+8*(i/2))*src.YStride + px + 8*(i%2)
		po := 8*(i/2)*16 + 8*(i%2)
		codec.Residual8(&blks[i], src.Y, co, src.YStride, s.pred.Y[:], po, 16, s.e.cfg.Kernels)
		dct.Forward8(&blks[i])
		if quant.Mpeg2QuantInter(&blks[i], q) > 0 {
			cbp |= 1 << (5 - i)
		}
	}
	cx, cy := px/2, py/2
	co := src.COrigin + cy*src.CStride + cx
	codec.Residual8(&blks[4], src.Cb, co, src.CStride, s.pred.Cb[:], 0, 8, s.e.cfg.Kernels)
	dct.Forward8(&blks[4])
	if quant.Mpeg2QuantInter(&blks[4], q) > 0 {
		cbp |= 1 << 1
	}
	codec.Residual8(&blks[5], src.Cr, co, src.CStride, s.pred.Cr[:], 0, 8, s.e.cfg.Kernels)
	dct.Forward8(&blks[5])
	if quant.Mpeg2QuantInter(&blks[5], q) > 0 {
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

// residualWouldBeZero checks cheaply whether the quantized residual of the
// MB would be all zero for the current prediction (used for skip decisions).
func (s *rowEnc) residualWouldBeZero(src *frame.Frame, px, py int) bool {
	q := s.q
	var blk [64]int32
	for i := 0; i < 4; i++ {
		co := src.YOrigin + (py+8*(i/2))*src.YStride + px + 8*(i%2)
		po := 8*(i/2)*16 + 8*(i%2)
		codec.Residual8(&blk, src.Y, co, src.YStride, s.pred.Y[:], po, 16, s.e.cfg.Kernels)
		dct.Forward8(&blk)
		if quant.Mpeg2QuantInter(&blk, q) > 0 {
			return false
		}
	}
	cx, cy := px/2, py/2
	co := src.COrigin + cy*src.CStride + cx
	codec.Residual8(&blk, src.Cb, co, src.CStride, s.pred.Cb[:], 0, 8, s.e.cfg.Kernels)
	dct.Forward8(&blk)
	if quant.Mpeg2QuantInter(&blk, q) > 0 {
		return false
	}
	codec.Residual8(&blk, src.Cr, co, src.CStride, s.pred.Cr[:], 0, 8, s.e.cfg.Kernels)
	dct.Forward8(&blk)
	return quant.Mpeg2QuantInter(&blk, q) == 0
}

// encodePMB codes one macroblock of a P frame.
//
//hdvlint:noalloc
func (s *rowEnc) encodePMB(src, recon *frame.Frame, mbx, mby int) {
	px, py := mbx*16, mby*16
	ref := s.e.lastRef

	mv, interSAD := s.searchLuma(src, ref, px, py, mbx, s.fwdPred, s.pred.Y[:])
	intraCost := codec.IntraCostMB(src, px, py)

	if intraCost < interSAD {
		entropy.WriteUE(s.bw, pIntra)
		s.encodeIntraMB(src, recon, mbx, mby)
		s.fwdPred = motion.MV{}
		s.mvRow[mbx] = motion.MV{}
		return
	}

	mcChroma(ref, px, py, mv, s.pred.Cb[:], s.pred.Cr[:], s.e.cfg.Kernels)

	// Skip: zero MV and empty residual.
	if mv == (motion.MV{}) && s.residualWouldBeZero(src, px, py) {
		entropy.WriteUE(s.bw, pSkip)
		s.pred.CopyTo(recon, px, py)
		s.fwdPred = motion.MV{}
		s.mvRow[mbx] = motion.MV{}
		s.dcPred = [3]int32{dcPredInit, dcPredInit, dcPredInit}
		return
	}

	entropy.WriteUE(s.bw, pInter)
	entropy.WriteSE(s.bw, int32(mv.X)-int32(s.fwdPred.X))
	entropy.WriteSE(s.bw, int32(mv.Y)-int32(s.fwdPred.Y))
	s.fwdPred = mv
	s.mvRow[mbx] = motion.MV{X: mv.X >> 1, Y: mv.Y >> 1}
	s.codeResidualMB(src, recon, px, py)
	s.dcPred = [3]int32{dcPredInit, dcPredInit, dcPredInit}
}

// encodeBMB codes one macroblock of a B frame.
//
//hdvlint:noalloc
func (s *rowEnc) encodeBMB(src, recon *frame.Frame, mbx, mby int) {
	px, py := mbx*16, mby*16
	fwdRef, bwdRef := s.e.prevRef, s.e.lastRef

	fwdMV, fwdSAD := s.searchLuma(src, fwdRef, px, py, mbx, s.fwdPred, s.pred.Y[:])
	// Keep the forward prediction; search backward into yAlt.
	bwdMV, bwdSAD := s.searchLumaAlt(src, bwdRef, px, py, mbx, s.bwdPred)

	// Bi-directional hypothesis: average of both predictions.
	var bi [256]byte
	copy(bi[:], s.pred.Y[:])
	interp.Avg(bi[:], 16, s.pred.YAlt[:], 16, 16, 16, s.e.cfg.Kernels)
	biSAD := s.sadMB(src, px, py, bi[:]) + 2*s.lambda // extra MV cost

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
		s.mvRow[mbx] = motion.MV{}
		return
	}

	// Assemble final prediction into s.pred.
	switch mode {
	case bBwd:
		copy(s.pred.Y[:], s.pred.YAlt[:])
	case bBi:
		copy(s.pred.Y[:], bi[:])
	}
	mcChromaB(&s.pred, mode, fwdRef, bwdRef, px, py, fwdMV, bwdMV, s.e.cfg.Kernels)

	// Skip: forward mode with MV equal to the predictor and no residual.
	if mode == bFwd && fwdMV == s.fwdPred && s.residualWouldBeZero(src, px, py) {
		entropy.WriteUE(s.bw, bSkip)
		s.pred.CopyTo(recon, px, py)
		s.mvRow[mbx] = motion.MV{X: fwdMV.X >> 1, Y: fwdMV.Y >> 1}
		s.dcPred = [3]int32{dcPredInit, dcPredInit, dcPredInit}
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
		s.mvRow[mbx] = motion.MV{X: fwdMV.X >> 1, Y: fwdMV.Y >> 1}
	default:
		s.mvRow[mbx] = motion.MV{X: bwdMV.X >> 1, Y: bwdMV.Y >> 1}
	}
	s.codeResidualMB(src, recon, px, py)
	s.dcPred = [3]int32{dcPredInit, dcPredInit, dcPredInit}
}

// searchLumaAlt is searchLuma writing its prediction into pred.YAlt.
func (s *rowEnc) searchLumaAlt(src, ref *frame.Frame, px, py, mbx int, predHalf motion.MV) (motion.MV, int) {
	return s.searchLuma(src, ref, px, py, mbx, predHalf, s.pred.YAlt[:])
}
