package mpeg4

import (
	"fmt"

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

// Encoder is the MPEG-4 ASP-class encoder (the paper's Xvid role).
//
// Frames are coded as cfg.Slices independent macroblock-row slices (see
// internal/codec's slice layer): each slice has its own bitstream, DC
// and MV predictors, so slices run concurrently on the SliceRunner while
// the merged payload stays byte-identical for every schedule. Inside
// each slice the macroblock rows are coded by per-row coders (rowEnc)
// that can additionally run on a wavefront runner when cfg.Wavefront is
// set — see sliceEnc.encode.
type Encoder struct {
	cfg    codec.Config
	gop    codec.GOPScheduler
	runner codec.SliceRunner
	wfRun  codec.WavefrontRunner

	prevRef, lastRef *frame.Frame

	dcInit int32

	spans  []codec.SliceSpan
	slices []*sliceEnc

	inCount int
	ptsBase int // chunk offset in the global timeline (codec.PTSRebaser)

	// Rate control (nil/zero when cfg.TargetKbps == 0): frameQ is the
	// current frame's controller-chosen quantizer, sliceQs the per-slice
	// overrides when cfg.SliceQ().
	rc       *codec.RateController
	frameQ   int
	sliceQs  []int
	sliceBuf []int

	// Ladder motion plumbing: tap collects this frame's full-pel forward
	// field for cfg.MotionTap; hint is the cross-rung seed field for the
	// frame being coded (see codec.Config.MotionHints).
	tap  *motion.Field
	hint *motion.Field
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

	pred predBuf

	dcPred  [3]int32
	fwdPred motion.MV // quarter-pel forward predictor within the row
	bwdPred motion.MV
	mvRow   []motion.MV // full-pel MVs for EPZS predictors
	mvAbove []motion.MV

	// Per-slice coding parameters, set by sliceEnc.encode before any
	// macroblock runs: with rate control off they mirror cfg.Q.
	q      int32
	lambda int
	dcInit int32

	epzsPreds [4]motion.MV // scratch for the EPZS candidate list (+1 hint slot)
}

// NewEncoder returns an MPEG-4 encoder for cfg.
func NewEncoder(cfg codec.Config) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("mpeg4: %w", err)
	}
	e := &Encoder{
		cfg:    cfg,
		gop:    codec.GOPScheduler{BFrames: cfg.BFrames, IntraPeriod: cfg.IntraPeriod, SceneCut: cfg.SceneCutIntra},
		dcInit: 1024 / quant.Mpeg4DCScaler(int32(cfg.Q)),
		rc:     codec.NewRateController(cfg),
	}
	e.spans = codec.SliceRows(cfg.MBRows(), cfg.Slices)
	e.slices = make([]*sliceEnc, len(e.spans))
	hint := cfg.Width*cfg.Height/4/len(e.spans) + 64
	rowHint := cfg.Width*cfg.Height/4/cfg.MBRows() + 64
	for i := range e.slices {
		s := &sliceEnc{
			e:    e,
			bw:   bitstream.NewWriter(hint),
			rows: make([]*rowEnc, e.spans[i].Rows),
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

// SetSliceRunner implements codec.SliceScheduler: per-frame slice jobs
// run on r (nil restores the serial default). Output bytes do not depend
// on the runner.
func (e *Encoder) SetSliceRunner(r codec.SliceRunner) { e.runner = r }

// SetWavefrontRunner implements codec.WavefrontScheduler: when
// cfg.Wavefront is set, each slice's macroblock grid runs on r (nil
// restores the serial default). Output bytes depend on neither the
// runner nor cfg.Wavefront.
func (e *Encoder) SetWavefrontRunner(r codec.WavefrontRunner) { e.wfRun = r }

// SetPTSBase implements codec.PTSRebaser: the GOP-parallel pipeline
// announces the chunk's offset in the global display timeline so the
// motion tap/hint callbacks key on global stamps.
func (e *Encoder) SetPTSBase(base int) { e.ptsBase = base }

// Header implements codec.Encoder.
func (e *Encoder) Header() container.Header { return header(e.cfg, 0) }

// Encode implements codec.Encoder.
func (e *Encoder) Encode(f *frame.Frame) ([]container.Packet, error) {
	if f.Width != e.cfg.Width || f.Height != e.cfg.Height {
		return nil, fmt.Errorf("mpeg4: frame is %dx%d, config is %dx%d",
			f.Width, f.Height, e.cfg.Width, e.cfg.Height)
	}
	f.PTS = e.inCount
	e.inCount++
	var pkts []container.Packet
	for _, entry := range e.gop.Push(f) {
		pkts = append(pkts, e.encodeFrame(entry.Frame, entry.Type))
	}
	return pkts, nil
}

// Flush implements codec.Encoder.
func (e *Encoder) Flush() ([]container.Packet, error) {
	var pkts []container.Packet
	for _, entry := range e.gop.Flush() {
		pkts = append(pkts, e.encodeFrame(entry.Frame, entry.Type))
	}
	return pkts, nil
}

func (e *Encoder) encodeFrame(src *frame.Frame, ftype container.FrameType) container.Packet {
	recon := frame.NewPadded(e.cfg.Width, e.cfg.Height, codec.RefPad)
	recon.PTS = src.PTS

	if e.rc != nil {
		e.frameQ = e.rc.FrameQ(ftype)
	} else {
		e.frameQ = e.cfg.Q
	}
	if e.cfg.SliceQ() {
		e.sliceQs = e.rc.SliceQs(e.frameQ, len(e.spans))
	} else {
		e.sliceQs = nil
	}
	if ftype != container.FrameI {
		if e.cfg.MotionTap != nil {
			e.tap = motion.NewField(e.cfg.Width, e.cfg.Height)
		}
		if e.cfg.MotionHints != nil {
			e.hint = e.cfg.MotionHints(src.PTS + e.ptsBase)
		}
	} else {
		e.tap, e.hint = nil, nil
	}

	codec.RunSlices(e.runner, len(e.spans), func(i int) {
		e.slices[i].encode(src, recon, ftype, e.spans[i], i)
	})

	recon.ExtendBorders()
	switch ftype {
	case container.FrameI:
		// Closed GOP: an I frame invalidates earlier references, so a
		// chunk encoder starting here matches the serial stream exactly.
		interp.BuildHalfPel6(recon, e.cfg.Kernels)
		e.prevRef = nil
		e.lastRef = recon
	case container.FrameP:
		interp.BuildHalfPel6(recon, e.cfg.Kernels)
		e.prevRef = e.lastRef
		e.lastRef = recon
	}

	// Payload layout: one quantizer byte, the slice table, then the
	// per-slice bitstreams in row order.
	total := 1 + codec.SliceTableSize(len(e.spans))
	for i, s := range e.slices {
		e.spans[i].Size = len(s.bw.Bytes())
		total += e.spans[i].Size
	}
	payload := make([]byte, 0, total)
	payload = append(payload, byte(e.frameQ))
	payload = codec.AppendSliceTable(payload, e.spans)
	for _, s := range e.slices {
		payload = append(payload, s.bw.Bytes()...)
	}
	if e.rc != nil {
		e.rc.AddFrame(ftype, 8*len(payload))
		if e.sliceQs != nil {
			e.sliceBuf = e.sliceBuf[:0]
			for i := range e.spans {
				e.sliceBuf = append(e.sliceBuf, 8*e.spans[i].Size)
			}
			e.rc.AddSlices(e.sliceBuf)
		}
	}
	if e.tap != nil {
		e.cfg.MotionTap(src.PTS+e.ptsBase, e.tap)
		e.tap = nil
	}
	return container.Packet{Type: ftype, DisplayIndex: src.PTS, Payload: payload}
}

// encode codes one slice's macroblock rows with slice-local state.
//
// Each row is coded by its own rowEnc into its own bitstream; the row
// streams are concatenated bit-exactly afterwards, so the slice bytes
// are those of a single raster-order pass regardless of schedule. With
// cfg.Wavefront set and a runner installed, the rows run concurrently in
// wavefront dependency order — the order the EPZS predictor reads (left,
// above, above-right) require.
func (s *sliceEnc) encode(src, recon *frame.Frame, ftype container.FrameType, span codec.SliceSpan, idx int) {
	cols := s.e.cfg.MBCols()
	q := int32(s.e.frameQ)
	if s.e.sliceQs != nil {
		q = int32(s.e.sliceQs[idx])
	}
	lambda := lambdaFor(int(q))
	dcInit := s.e.dcInit
	if q != int32(s.e.cfg.Q) {
		dcInit = 1024 / quant.Mpeg4DCScaler(q)
	}
	for _, r := range s.rows[:span.Rows] {
		r.q, r.lambda, r.dcInit = q, lambda, dcInit
	}
	tap := s.e.tap
	p := s.mvPhase
	// Row 0 reads a zeroed "row above" (the slice-boundary reset); the
	// write buffers keep their prior contents — B-intra macroblocks read
	// stale entries through them, matching the serial swap history.
	above0 := s.mvBuf[(p+1)%2]
	for i := range above0 {
		above0[i] = motion.MV{}
	}
	var run codec.WavefrontRunner
	if s.e.cfg.Wavefront {
		run = s.e.wfRun
	}
	codec.RunWavefront(run, span.Rows, cols, func(x, y int) bool {
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
		if tap != nil && ftype != container.FrameI {
			tap.Set(x, mby, r.mvRow[x])
		}
		return true
	})
	s.mvPhase = (p + span.Rows) % 2
	s.bw.Reset()
	if s.e.sliceQs != nil {
		// FlagSliceQ layout: the slice body opens with its quantizer byte.
		s.bw.WriteBits(uint64(q), 8)
	}
	for y := 0; y < span.Rows; y++ {
		s.bw.AppendWriter(s.rows[y].bw)
	}
	s.bw.AlignByte()
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

	quant.Mpeg4DequantIntra(&blk, q)
	dct.Inverse8(&blk)
	codec.Store8Clip(rec, roff, rstride, &blk)
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

//hdvlint:noalloc
func intraCostMB(src *frame.Frame, px, py int) int {
	off := src.YOrigin + py*src.YStride + px
	sum := 0
	for r := 0; r < 16; r++ {
		sum += swar.SumRow(src.Y[off+r*src.YStride:], 16)
	}
	mean := byte(sum / 256)
	cost := 0
	for r := 0; r < 16; r++ {
		row := src.Y[off+r*src.YStride:]
		for c := 0; c < 16; c++ {
			d := int(row[c]) - int(mean)
			if d < 0 {
				d = -d
			}
			cost += d
		}
	}
	return cost + 512
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
		if h := s.e.hint; h != nil {
			// Cross-rung seed from the full-resolution rung, scaled to
			// this geometry (see motion.Field.Sample).
			preds = append(preds, h.Sample(mbx, py/16, s.e.cfg.Width, s.e.cfg.Height))
		}
	}
	exitT := 2 * int(s.q) * blockW * blockH / 16
	if s.e.hint != nil {
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
	ix, fx := splitQuarter(int(mv.X))
	iy, fy := splitQuarter(int(mv.Y))
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
	ix, fx := splitQuarter(int(mv.X))
	iy, fy := splitQuarter(int(mv.Y))
	so := ref.YOrigin + (py+iy)*ref.YStride + px + ix
	interp.LumaPlanes(dst, 16, ref.Y, ref.Hpel6, so, ref.YStride, w, h, fx, fy, s.e.cfg.Kernels)
}

// predictChroma fills 8×8 chroma predictions for a 16×16 quarter-pel MV.
func (s *rowEnc) predictChroma(ref *frame.Frame, px, py int, mv motion.MV, cb, cr []byte) {
	cvx := chromaFromLuma(int(mv.X))
	cvy := chromaFromLuma(int(mv.Y))
	ix, fx := splitHalf(cvx)
	iy, fy := splitHalf(cvy)
	cx, cy := px/2, py/2
	so := ref.COrigin + (cy+iy)*ref.CStride + cx + ix
	interp.HalfPel(cb, 8, ref.Cb[so:], ref.CStride, 8, 8, fx, fy, s.e.cfg.Kernels)
	interp.HalfPel(cr, 8, ref.Cr[so:], ref.CStride, 8, 8, fx, fy, s.e.cfg.Kernels)
}

// predictChroma4MV derives chroma from the sum of four 8×8 vectors.
func (s *rowEnc) predictChroma4MV(ref *frame.Frame, px, py int, mvs *[4]motion.MV, cb, cr []byte) {
	sx, sy := 0, 0
	for _, v := range mvs {
		sx += int(v.X)
		sy += int(v.Y)
	}
	avg := motion.MV{X: int16(sx / 4), Y: int16(sy / 4)}
	s.predictChroma(ref, px, py, avg, cb, cr)
}

// --- residual ----------------------------------------------------------------

//hdvlint:noalloc
func (s *rowEnc) codeResidualMB(src, recon *frame.Frame, px, py int) int {
	q := s.q
	var blks [6][64]int32
	cbp := 0
	for i := 0; i < 4; i++ {
		co := src.YOrigin + (py+8*(i/2))*src.YStride + px + 8*(i%2)
		po := 8*(i/2)*16 + 8*(i%2)
		codec.Residual8(&blks[i], src.Y, co, src.YStride, s.pred.y[:], po, 16, s.e.cfg.Kernels)
		dct.Forward8(&blks[i])
		if quant.Mpeg4QuantInter(&blks[i], q) > 0 {
			cbp |= 1 << (5 - i)
		}
	}
	cx, cy := px/2, py/2
	co := src.COrigin + cy*src.CStride + cx
	codec.Residual8(&blks[4], src.Cb, co, src.CStride, s.pred.cb[:], 0, 8, s.e.cfg.Kernels)
	dct.Forward8(&blks[4])
	if quant.Mpeg4QuantInter(&blks[4], q) > 0 {
		cbp |= 2
	}
	codec.Residual8(&blks[5], src.Cr, co, src.CStride, s.pred.cr[:], 0, 8, s.e.cfg.Kernels)
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

	for i := 0; i < 4; i++ {
		ro := recon.YOrigin + (py+8*(i/2))*recon.YStride + px + 8*(i%2)
		po := 8*(i/2)*16 + 8*(i%2)
		if cbp&(1<<(5-i)) != 0 {
			quant.Mpeg4DequantInter(&blks[i], q)
			dct.Inverse8(&blks[i])
			codec.Add8Clip(recon.Y, ro, recon.YStride, s.pred.y[:], po, 16, &blks[i], s.e.cfg.Kernels)
		} else {
			codec.Copy8(recon.Y, ro, recon.YStride, s.pred.y[:], po, 16)
		}
	}
	cro := recon.COrigin + cy*recon.CStride + cx
	if cbp&2 != 0 {
		quant.Mpeg4DequantInter(&blks[4], q)
		dct.Inverse8(&blks[4])
		codec.Add8Clip(recon.Cb, cro, recon.CStride, s.pred.cb[:], 0, 8, &blks[4], s.e.cfg.Kernels)
	} else {
		codec.Copy8(recon.Cb, cro, recon.CStride, s.pred.cb[:], 0, 8)
	}
	if cbp&1 != 0 {
		quant.Mpeg4DequantInter(&blks[5], q)
		dct.Inverse8(&blks[5])
		codec.Add8Clip(recon.Cr, cro, recon.CStride, s.pred.cr[:], 0, 8, &blks[5], s.e.cfg.Kernels)
	} else {
		codec.Copy8(recon.Cr, cro, recon.CStride, s.pred.cr[:], 0, 8)
	}
	return cbp
}

func (s *rowEnc) residualWouldBeZero(src *frame.Frame, px, py int) bool {
	q := s.q
	var blk [64]int32
	for i := 0; i < 4; i++ {
		co := src.YOrigin + (py+8*(i/2))*src.YStride + px + 8*(i%2)
		po := 8*(i/2)*16 + 8*(i%2)
		codec.Residual8(&blk, src.Y, co, src.YStride, s.pred.y[:], po, 16, s.e.cfg.Kernels)
		dct.Forward8(&blk)
		if quant.Mpeg4QuantInter(&blk, q) > 0 {
			return false
		}
	}
	cx, cy := px/2, py/2
	co := src.COrigin + cy*src.CStride + cx
	codec.Residual8(&blk, src.Cb, co, src.CStride, s.pred.cb[:], 0, 8, s.e.cfg.Kernels)
	dct.Forward8(&blk)
	if quant.Mpeg4QuantInter(&blk, q) > 0 {
		return false
	}
	codec.Residual8(&blk, src.Cr, co, src.CStride, s.pred.cr[:], 0, 8, s.e.cfg.Kernels)
	dct.Forward8(&blk)
	return quant.Mpeg4QuantInter(&blk, q) == 0
}

func (s *rowEnc) copyPredToRecon(recon *frame.Frame, px, py int) {
	for r := 0; r < 16; r++ {
		ro := recon.YOrigin + (py+r)*recon.YStride + px
		copy(recon.Y[ro:ro+16], s.pred.y[r*16:r*16+16])
	}
	cx, cy := px/2, py/2
	for r := 0; r < 8; r++ {
		ro := recon.COrigin + (cy+r)*recon.CStride + cx
		copy(recon.Cb[ro:ro+8], s.pred.cb[r*8:r*8+8])
		copy(recon.Cr[ro:ro+8], s.pred.cr[r*8:r*8+8])
	}
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
	mv16, sad16 := s.searchQPel(src, ref, px, py, 16, 16, mbx, s.fwdPred, s.pred.y[:], true)
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

	intraCost := intraCostMB(src, px, py)

	if intraCost < cost16 && intraCost < cost4 {
		entropy.WriteUE(s.bw, pIntra)
		s.encodeIntraMB(src, recon, mbx, mby)
		s.fwdPred = motion.MV{}
		s.mvRow[mbx] = motion.MV{}
		return
	}

	if cost4 < cost16 {
		copy(s.pred.y[:], pred4[:])
		s.predictChroma4MV(ref, px, py, &mvs4, s.pred.cb[:], s.pred.cr[:])
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

	s.predictChroma(ref, px, py, mv16, s.pred.cb[:], s.pred.cr[:])
	if mv16 == (motion.MV{}) && s.residualWouldBeZero(src, px, py) {
		entropy.WriteUE(s.bw, pSkip)
		s.copyPredToRecon(recon, px, py)
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

	fwdMV, fwdSAD := s.searchQPel(src, fwdRef, px, py, 16, 16, mbx, s.fwdPred, s.pred.y[:], true)
	bwdMV, bwdSAD := s.searchQPel(src, bwdRef, px, py, 16, 16, mbx, s.bwdPred, s.pred.yAlt[:], true)

	var bi [256]byte
	copy(bi[:], s.pred.y[:])
	interp.Avg(bi[:], 16, s.pred.yAlt[:], 16, 16, 16, s.e.cfg.Kernels)
	biSAD := s.sadBlock(src, px, py, 16, 16, bi[:], 16) + 2*lambda

	intraCost := intraCostMB(src, px, py)

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
	case bFwd:
		s.predictChroma(fwdRef, px, py, fwdMV, s.pred.cb[:], s.pred.cr[:])
	case bBwd:
		copy(s.pred.y[:], s.pred.yAlt[:])
		s.predictChroma(bwdRef, px, py, bwdMV, s.pred.cb[:], s.pred.cr[:])
	case bBi:
		copy(s.pred.y[:], bi[:])
		s.predictChroma(fwdRef, px, py, fwdMV, s.pred.cb[:], s.pred.cr[:])
		s.predictChroma(bwdRef, px, py, bwdMV, s.pred.cbAlt[:], s.pred.crAlt[:])
		interp.Avg(s.pred.cb[:], 8, s.pred.cbAlt[:], 8, 8, 8, s.e.cfg.Kernels)
		interp.Avg(s.pred.cr[:], 8, s.pred.crAlt[:], 8, 8, 8, s.e.cfg.Kernels)
	}

	if mode == bFwd && fwdMV == s.fwdPred && s.residualWouldBeZero(src, px, py) {
		entropy.WriteUE(s.bw, bSkip)
		s.copyPredToRecon(recon, px, py)
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
