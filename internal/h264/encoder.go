package h264

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

// mbData carries one macroblock's decisions and quantized coefficients
// between the decision phase and the syntax/reconstruction phase.
type mbData struct {
	mode int
	ref  int8
	mvs  [4]motion.MV // per-partition quarter-pel vectors

	i16Mode int
	i4Modes [16]int

	luma     [16][16]int32
	lumaDC   [16]int32
	lumaDCNZ bool
	chroma   [2][4][16]int32
	chromaDC [2][4]int32

	cbpLuma   int
	cbpChroma int
	lumaNZ    [16]bool
}

// mbRec is one macroblock's complete syntax record, produced by the
// decision phase (which may run on the wavefront) and replayed serially
// through the entropy coder. kind selects the emission sequence; pmvp
// holds the MV predictors exactly as the serial code observed them when
// it wrote the mvd fields (for B MBs, pmvp[0] is the forward predictor
// and pmvp[1] the row-local backward predictor at decision time).
type mbRec struct {
	md   mbData
	kind int8
	pmvp [4]motion.MV
}

// mbRec kinds — one per distinct syntax shape.
const (
	recI4     = int8(iota) // I-frame I4×4: mbType bit + 16 modes + residual
	recI16                 // I-frame I16×16: mbType bit + mode + residual
	recSkip                // P/B skip: a single skip bit
	recPIntra              // intra in P: skip0 + mbType + i16 mode + residual
	recBIntra              // intra in B: skip0 + mbType + i16 mode + residual
	recPInter              // inter P: skip0 + mbType + ref + mvds + residual
	recBInter              // inter B: skip0 + mbType + mvds + residual
)

// Encoder is the H.264-class encoder (the paper's x264 role):
// codec.FrameEncoder driving this package's slice coder. Every slice has
// its own CABAC/VLC entropy state and context models, intra prediction
// and MV prediction clamp at the slice's top row, and the in-loop
// deblocking filter runs over the whole frame after all slices have
// reconstructed — exactly the same frame on encoder and decoder, so the
// loop stays closed.
type Encoder struct {
	*codec.FrameEncoder
	cfg codec.Config

	refs *codec.RefList // the driver's reference list, from BeginFrame
	meta *frameMeta

	slices []*sliceEnc
}

// sliceEnc carries the per-slice encoder state. Entropy coding is the
// one part of H.264 that cannot ride the wavefront — CABAC context
// adaptation (and the VLC writer's bit position) chains across every
// macroblock of the slice — so the slice runs in two phases: rowEnc
// coders make all decisions and reconstruct on the (possibly
// wavefront-scheduled) front, recording per-MB syntax in mbRec, and the
// sliceEnc then replays the records through w/ctx in raster order.
// Both phases execute the same value sequence the serial encoder did,
// so the slice bytes are identical for every schedule.
type sliceEnc struct {
	e   *Encoder
	w   symWriter
	ctx *contexts

	rows []*rowEnc // one decision coder per MB row of the span
}

// rowEnc is the decision-phase coder for one macroblock row: the
// reconstruction it shares with the decoder, search scratch, the
// row-local backward MV predictor and the row's syntax records. Rows of a
// slice may run concurrently under the wavefront, so nothing here is
// shared across rows.
type rowEnc struct {
	mbRecon
	e *Encoder

	tmpY [256]byte

	bwdPredRow motion.MV // backward MV predictor within a B row

	// Per-slice coding parameters, set by EncodeSlice before any
	// macroblock runs (and qp, in mbRecon).
	lambda int
	hint   *motion.Field // cross-rung seed field for the frame, or nil

	recs []mbRec // per-MB records for this row, one per MB column
}

// lambdaForQP maps an H.264 QP to the motion/mode λ (SAD units per bit).
func lambdaForQP(qp int) int {
	l := (1 << uint(qp/6)) >> 2
	if l < 1 {
		l = 1
	}
	return l
}

// NewEncoder returns an H.264 encoder for cfg.
func NewEncoder(cfg codec.Config) (*Encoder, error) {
	e := &Encoder{cfg: cfg}
	flags := uint16(cfg.Refs&flagRefsMask) << flagRefsShift
	if cfg.Entropy == codec.EntropyVLC {
		flags |= flagVLC
	}
	var err error
	if e.FrameEncoder, err = codec.NewFrameEncoder("h264", cfg, container.CodecH264, flags, cfg.Refs, e); err != nil {
		return nil, err
	}
	if cfg.BFrames > 0 && cfg.Refs < 2 {
		// A B macroblock predicts from both references around it.
		return nil, fmt.Errorf("h264: B frames need refs ≥ 2, have %d", cfg.Refs)
	}
	e.meta = newFrameMeta(cfg.Width, cfg.Height)
	spans := codec.SliceRows(cfg.MBRows(), cfg.Slices)
	e.slices = make([]*sliceEnc, len(spans))
	hint := cfg.Width*cfg.Height/8/len(spans) + 64
	for i := range e.slices {
		s := &sliceEnc{e: e, ctx: newContexts()}
		if cfg.Entropy == codec.EntropyVLC {
			s.w = vlcWriter{bitstream.NewWriter(hint)}
		} else {
			s.w = cabacWriter{entropy.NewEncoder(hint)}
		}
		s.rows = make([]*rowEnc, spans[i].Rows)
		for y := range s.rows {
			s.rows[y] = &rowEnc{
				mbRecon: mbRecon{kern: cfg.Kernels, meta: e.meta, topPx: spans[i].Row * 16},
				e:       e,
				recs:    make([]mbRec, cfg.MBCols()),
			}
		}
		e.slices[i] = s
	}
	return e, nil
}

// QP returns the H.264 quantizer cfg.Q maps to (exported for the harness
// report).
func (e *Encoder) QP() int { return e.WireQ(e.cfg.Q) }

// WireQ implements codec.SliceEncoder: payloads carry, and slices code
// with, the H.264 QP the paper's Eq. 1 maps the MPEG-scale quantizer to.
func (e *Encoder) WireQ(q int) int { return quant.H264QPFromMPEG(q) }

// BeginFrame implements codec.SliceEncoder.
func (e *Encoder) BeginFrame(refs *codec.RefList, _ int) {
	e.refs = refs
	e.meta.reset()
}

// EndFrame implements codec.SliceEncoder. Deblocking is a frame-level
// pass over the merged reconstruction and meta grids — slice-boundary
// edges are filtered like any other, on both sides of the codec, so
// slices cost prediction efficiency but not loop-filter coverage.
func (e *Encoder) EndFrame(recon *frame.Frame, qp int) { deblockFrame(recon, e.meta, qp) }

// NewReference implements codec.SliceEncoder: interpolate the new
// reference once; every future search against it scores candidates
// straight from these planes.
func (e *Encoder) NewReference(recon *frame.Frame) { interp.BuildHalfPel6(recon, e.cfg.Kernels) }

// EncodeSlice implements codec.SliceEncoder with slice-local entropy
// state.
//
// Phase 1 — decisions, reconstruction and meta-grid updates run on the
// wavefront: MB (x,y) starts once its left neighbour (x−1,y) and the
// top-right MB (x+1,y−1) are done, which covers every cross-MB read
// below (intra prediction pixels, MV predictors, search seeds, NZ
// flags). Each row coder records its per-MB syntax instead of writing
// bits. With no runner the front degenerates to the same raster loop the
// serial encoder ran.
//
// Phase 2 — entropy coding replays the records in raster order on the
// slice's single writer: CABAC/VLC state chains across the whole slice,
// so this part is inherently serial and the emitted bytes match the
// serial schedule exactly.
func (e *Encoder) EncodeSlice(i int, src, recon *frame.Frame, ftype container.FrameType, span codec.SliceSpan,
	qp int, wf codec.WavefrontRunner, tap, hint *motion.Field) []byte {
	s := e.slices[i]
	cols := e.cfg.MBCols()
	lambda := lambdaForQP(qp)
	for _, r := range s.rows {
		r.qp, r.lambda, r.hint = qp, lambda, hint
	}
	codec.RunWavefront(wf, span.Rows, cols, func(x, y int) bool {
		r := s.rows[y]
		if x == 0 {
			r.bwdPredRow = motion.MV{}
		}
		rec := &r.recs[x]
		*rec = mbRec{}
		mby := span.Row + y
		switch ftype {
		case container.FrameI:
			r.decideIMB(src, recon, x, mby, rec)
		case container.FrameP:
			r.decidePMB(src, recon, x, mby, rec)
		default:
			r.decideBMB(src, recon, x, mby, rec)
		}
		if tap != nil {
			// Capture the winning forward vector (quarter-pel → full-pel);
			// intra and skip macroblocks record zero, a harmless hint.
			var mv motion.MV
			if rec.kind == recPInter || rec.kind == recBInter {
				mv = motion.MV{X: rec.md.mvs[0].X >> 2, Y: rec.md.mvs[0].Y >> 2}
			}
			tap.Set(x, mby, mv)
		}
		return true
	})

	s.ctx.reset()
	s.w.reset()
	for y := 0; y < span.Rows; y++ {
		for x := 0; x < cols; x++ {
			s.emitMB(&s.rows[y].recs[x])
		}
	}
	return s.w.finish()
}

// emitMB replays one macroblock record through the entropy coder,
// reproducing the exact symbol sequence of the serial encoder.
func (s *sliceEnc) emitMB(rec *mbRec) {
	md := &rec.md
	switch rec.kind {
	case recI4:
		s.w.bit(&s.ctx.mbType[0], 1) // 1 = I4x4
		for bi := 0; bi < 16; bi++ {
			s.w.ue(s.ctx.i4Mode[:], 3, uint32(md.i4Modes[bi]))
		}
		s.writeResidual(md, false)
	case recI16:
		s.w.bit(&s.ctx.mbType[0], 0) // 0 = I16x16
		s.w.ue(s.ctx.i16Mode[:], 2, uint32(md.i16Mode))
		s.writeResidual(md, true)
	case recSkip:
		s.w.bit(&s.ctx.skip[0], 1)
	case recPIntra, recBIntra:
		s.w.bit(&s.ctx.skip[0], 0)
		mt := mI16x16
		if rec.kind == recBIntra {
			mt = mBI16x16
		}
		s.w.ue(s.ctx.mbType[:], 3, uint32(mt))
		s.w.ue(s.ctx.i16Mode[:], 2, uint32(md.i16Mode))
		s.writeResidual(md, true)
	case recPInter:
		s.w.bit(&s.ctx.skip[0], 0)
		s.w.ue(s.ctx.mbType[:], 3, uint32(md.mode))
		if s.e.refs.Len() > 1 {
			s.w.ue(s.ctx.refIdx[:], 2, uint32(md.ref))
		}
		for pi := range partGeom[md.mode] {
			s.w.se(s.ctx.mvd[:], 8, int32(md.mvs[pi].X)-int32(rec.pmvp[pi].X))
			s.w.se(s.ctx.mvd[:], 8, int32(md.mvs[pi].Y)-int32(rec.pmvp[pi].Y))
		}
		s.writeResidual(md, false)
	case recBInter:
		s.w.bit(&s.ctx.skip[0], 0)
		s.w.ue(s.ctx.mbType[:], 3, uint32(md.mode))
		if md.mode == mBFwd || md.mode == mBBi {
			s.w.se(s.ctx.mvd[:], 8, int32(md.mvs[0].X)-int32(rec.pmvp[0].X))
			s.w.se(s.ctx.mvd[:], 8, int32(md.mvs[0].Y)-int32(rec.pmvp[0].Y))
		}
		if md.mode == mBBwd || md.mode == mBBi {
			s.w.se(s.ctx.mvd[:], 8, int32(md.mvs[1].X)-int32(rec.pmvp[1].X))
			s.w.se(s.ctx.mvd[:], 8, int32(md.mvs[1].Y)-int32(rec.pmvp[1].Y))
		}
		s.writeResidual(md, false)
	}
}

// --- cost helpers -------------------------------------------------------------

//hdvlint:noalloc
func (s *rowEnc) sadBlock(src *frame.Frame, px, py, w, h int, pred []byte, pstride int) int {
	off := src.YOrigin + py*src.YStride + px
	if s.kern == kernel.SWAR {
		return swar.SADBlock(src.Y[off:], src.YStride, pred, pstride, w, h)
	}
	return codec.SADBlockBytes(src.Y, off, src.YStride, pred, 0, pstride, w, h)
}

func mvdBits(mv, pred motion.MV) int {
	return entropy.SEBits(int(mv.X)-int(pred.X)) + entropy.SEBits(int(mv.Y)-int(pred.Y))
}

// --- motion search ------------------------------------------------------------

// mcLumaInto fills dst (stride 16) with the quarter-pel prediction of the
// w×h block at (px, py) from the reference's half-pel planes (every
// encoder reference has them — BuildHalfPel6 runs before refs.Add; the
// decoder keeps the per-block QPel path, which is bit-exact with this
// one).
//
//hdvlint:noalloc
func (s *rowEnc) mcLumaInto(ref *frame.Frame, px, py, w, h int, mv motion.MV, dst []byte) {
	ix, fx := codec.SplitQuarter(int(mv.X))
	iy, fy := codec.SplitQuarter(int(mv.Y))
	so := ref.YOrigin + (py+iy)*ref.YStride + px + ix
	interp.LumaPlanes(dst, 16, ref.Y, ref.Hpel6, so, ref.YStride, w, h, fx, fy, s.kern)
}

// sadQPel scores one quarter-pel candidate against the precomputed half
// planes, early-terminating once the partial SAD reaches max.
//
//hdvlint:noalloc
func (s *rowEnc) sadQPel(src, ref *frame.Frame, px, py, w, h int, mv motion.MV, max int) int {
	ix, fx := codec.SplitQuarter(int(mv.X))
	iy, fy := codec.SplitQuarter(int(mv.Y))
	so := ref.YOrigin + (py+iy)*ref.YStride + px + ix
	co := src.YOrigin + py*src.YStride + px
	return motion.SADQPel(s.kern, src.Y[co:], src.YStride, ref, so, w, h, fx, fy, max)
}

// searchRef runs seed selection + hexagon + two-stage quarter-pel
// refinement against one reference, filling pred with the winner.
//
//hdvlint:noalloc
func (s *rowEnc) searchRef(src, ref *frame.Frame, px, py, w, h int, mvpQ motion.MV, pred []byte) (motion.MV, int) {
	var est motion.Estimator
	est.Kern = s.kern
	est.Cur = src.Y
	est.CurOff = src.YOrigin + py*src.YStride + px
	est.CurStride = src.YStride
	est.Ref = ref.Y
	est.RefOrigin = ref.YOrigin
	est.RefStride = ref.YStride
	est.PosX, est.PosY = px, py
	est.W, est.H = w, h
	est.Lambda = s.lambda
	est.Pred = motion.MV{X: mvpQ.X >> 2, Y: mvpQ.Y >> 2}
	est.Window(s.e.cfg.SearchRange, s.e.cfg.Width, s.e.cfg.Height, codec.RefPad)

	// Seed from spatial neighbours in the meta grid (quarter-pel → full),
	// never reaching above the slice's top row.
	m := s.meta
	bx4, by4 := px/4, py/4
	var seeds [4]motion.MV
	ns := 0
	seeds[ns] = est.Pred
	ns++
	if bx4 > 0 && m.ref[by4*m.w4+bx4-1] >= 0 {
		v := m.mv[by4*m.w4+bx4-1]
		seeds[ns] = motion.MV{X: v.X >> 2, Y: v.Y >> 2}
		ns++
	}
	if by4 > s.top4() && m.ref[(by4-1)*m.w4+bx4] >= 0 {
		v := m.mv[(by4-1)*m.w4+bx4]
		seeds[ns] = motion.MV{X: v.X >> 2, Y: v.Y >> 2}
		ns++
	}
	if h264hint := s.hint; h264hint != nil {
		// Cross-rung seed from the full-resolution rung, scaled to this
		// geometry (see motion.Field.Sample).
		seeds[ns] = h264hint.Sample(px/16, py/16, s.e.cfg.Width, s.e.cfg.Height)
		ns++
	}
	exitT := 0
	if s.hint != nil {
		// With a trusted cross-rung seed among the candidates the search
		// earns a real early-exit threshold (cold keeps 0: always refine),
		// and a seed below it skips the hexagon walk entirely; the ladder
		// PSNR guard bounds the quality cost.
		exitT = 2 * s.qp * w * h / 16
	}
	res := est.EPZS(seeds[:ns], exitT)
	if exitT == 0 || res.Cost > exitT {
		res = est.HexagonFrom(res)
	}

	// Quarter-pel refinement (step 2 then 1) on plain SAD, scored
	// against the reference's precomputed 6-tap half planes with early
	// termination; only the winner is materialized. Same candidate order
	// and strict comparisons as the per-block path — bytes unchanged.
	bestMV := motion.MV{X: res.MV.X * 4, Y: res.MV.Y * 4}
	bestSAD := res.Cost - est.MVCost(int(res.MV.X), int(res.MV.Y))
	for _, step := range [2]int{2, 1} {
		center := bestMV
		for dy := -step; dy <= step; dy += step {
			for dx := -step; dx <= step; dx += step {
				if dx == 0 && dy == 0 {
					continue
				}
				mv := motion.MV{X: center.X + int16(dx), Y: center.Y + int16(dy)}
				if sad := s.sadQPel(src, ref, px, py, w, h, mv, bestSAD); sad < bestSAD {
					bestSAD = sad
					bestMV = mv
				}
			}
		}
	}
	s.mcLumaInto(ref, px, py, w, h, bestMV, pred)
	return bestMV, bestSAD
}

// --- residual pipeline ----------------------------------------------------------

// lumaGroupBlocks lists the 4×4 block indices of each 8×8 CBP group.
var lumaGroupBlocks = [4][4]int{
	{0, 1, 4, 5}, {2, 3, 6, 7}, {8, 9, 12, 13}, {10, 11, 14, 15},
}

// lumaCBP is the luma coded-block pattern of the per-4×4 non-zero flags:
// bit g is set when a block of 8×8 group g has a coefficient.
//
//hdvlint:noalloc
func lumaCBP(nz *[16]bool) int {
	cbp := 0
	for g, blocks := range lumaGroupBlocks {
		for _, bi := range blocks {
			if nz[bi] {
				cbp |= 1 << g
				break
			}
		}
	}
	return cbp
}

// transformLumaInter quantizes the luma residual of an inter (or I4-less)
// MB against predY and fills md.luma/cbpLuma/lumaNZ.
//
//hdvlint:noalloc
func (s *rowEnc) transformLumaInter(src *frame.Frame, px, py int, md *mbData) {
	for bi := 0; bi < 16; bi++ {
		bx, by := 4*(bi%4), 4*(bi/4)
		var blk [16]int32
		codec.Residual4(&blk, src.Y, src.YOrigin+(py+by)*src.YStride+px+bx, src.YStride,
			s.predY[:], by*16+bx, 16, s.kern)
		dct.Forward4(&blk)
		nz := quant.H264Quant(&blk, s.qp, false)
		md.luma[bi] = blk
		md.lumaNZ[bi] = nz > 0
	}
	md.cbpLuma = lumaCBP(&md.lumaNZ)
}

// transformChroma quantizes both chroma planes against predC and fills
// md.chroma/chromaDC/cbpChroma.
//
//hdvlint:noalloc
func (s *rowEnc) transformChroma(src *frame.Frame, px, py int, intra bool, md *mbData) {
	cx, cy := px/2, py/2
	qpc := quant.H264ChromaQP(s.qp)
	anyAC, anyDC := false, false
	for pl := 0; pl < 2; pl++ {
		plane := src.Cb
		if pl == 1 {
			plane = src.Cr
		}
		var dc [4]int32
		for ci := 0; ci < 4; ci++ {
			ox, oy := 4*(ci%2), 4*(ci/2)
			var blk [16]int32
			codec.Residual4(&blk, plane, src.COrigin+(cy+oy)*src.CStride+cx+ox, src.CStride,
				s.predC[pl][:], oy*8+ox, 8, s.kern)
			dct.Forward4(&blk)
			dc[ci] = blk[0]
			blk[0] = 0
			if quant.H264Quant(&blk, qpc, intra) > 0 {
				anyAC = true
			}
			md.chroma[pl][ci] = blk
		}
		dct.Hadamard2(&dc)
		if quant.H264QuantChromaDC(&dc, qpc, intra) > 0 {
			anyDC = true
		}
		md.chromaDC[pl] = dc
	}
	switch {
	case anyAC:
		md.cbpChroma = 2
	case anyDC:
		md.cbpChroma = 1
	default:
		md.cbpChroma = 0
	}
}

// writeResidual emits CBP and coefficient blocks for the MB.
func (s *sliceEnc) writeResidual(md *mbData, i16 bool) {
	w := s.w
	for g := 0; g < 4; g++ {
		w.bit(&s.ctx.cbpLuma[g], (md.cbpLuma>>g)&1)
	}
	w.ue(s.ctx.chromaCBP[:], 2, uint32(md.cbpChroma))

	var scan [16]int32
	if i16 {
		scanBlock4(&md.lumaDC, 0, scan[:])
		writeCoeffs(w, &s.ctx.cbf[catLumaDC], s.ctx.sigDC[:], s.ctx.lastDC[:], s.ctx.levelDC[:], scan[:16])
	}
	start := 0
	if i16 {
		start = 1
	}
	for g := 0; g < 4; g++ {
		if md.cbpLuma&(1<<g) == 0 {
			continue
		}
		for _, bi := range lumaGroupBlocks[g] {
			scanBlock4(&md.luma[bi], start, scan[:])
			writeCoeffs(w, &s.ctx.cbf[catLuma], s.ctx.sig[:], s.ctx.last[:], s.ctx.level[:], scan[:16-start])
		}
	}
	if md.cbpChroma >= 1 {
		for pl := 0; pl < 2; pl++ {
			dcs := md.chromaDC[pl]
			writeCoeffs(w, &s.ctx.cbf[catChromaDC], s.ctx.sigDC[:], s.ctx.lastDC[:], s.ctx.levelDC[:], dcs[:])
		}
	}
	if md.cbpChroma == 2 {
		for pl := 0; pl < 2; pl++ {
			for ci := 0; ci < 4; ci++ {
				scanBlock4(&md.chroma[pl][ci], 1, scan[:])
				writeCoeffs(w, &s.ctx.cbf[catChromaAC], s.ctx.sig[:], s.ctx.last[:], s.ctx.level[:], scan[:15])
			}
		}
	}
}

// --- intra coding ----------------------------------------------------------------

// bestI16 selects the best I16×16 mode by SAD and returns (mode, cost).
//
//hdvlint:noalloc
func (s *rowEnc) bestI16(src, recon *frame.Frame, px, py int) (int, int) {
	availLeft := px > 0
	availTop := py > s.topPx
	bestMode, bestCost := -1, 1<<30
	var cands [numI16Modes]int
	for _, mode := range i16Candidates(availLeft, availTop, &cands) {
		predI16(s.tmpY[:], recon.Y, recon.YOrigin, recon.YStride, px, py, mode, availLeft, availTop)
		if sad := s.sadBlock(src, px, py, 16, 16, s.tmpY[:], 16); sad < bestCost {
			bestCost = sad
			bestMode = mode
		}
	}
	return bestMode, bestCost
}

// encodeI16Into predicts the macroblock with I16×16 mode into predY and
// quantizes its luma residual into md: the AC of every 4×4 block and the
// Hadamard-transformed block of their DCs. reconIntraMB reconstructs it.
//
//hdvlint:noalloc
func (s *rowEnc) encodeI16Into(src, recon *frame.Frame, px, py, mode int, md *mbData) {
	s.predictI16(recon, px, py, mode)
	md.mode = mI16x16
	md.i16Mode = mode

	var dcs [16]int32
	for bi := 0; bi < 16; bi++ {
		bx, by := 4*(bi%4), 4*(bi/4)
		var blk [16]int32
		codec.Residual4(&blk, src.Y, src.YOrigin+(py+by)*src.YStride+px+bx, src.YStride,
			s.predY[:], by*16+bx, 16, s.kern)
		dct.Forward4(&blk)
		dcs[bi] = blk[0]
		blk[0] = 0
		nz := quant.H264Quant(&blk, s.qp, true)
		md.luma[bi] = blk
		md.lumaNZ[bi] = nz > 0
	}
	// Reorder DCs to raster 4×4 of the DC block: dcs are already in raster
	// block order, matching the Hadamard layout.
	dct.Hadamard4(&dcs, true)
	md.lumaDCNZ = quant.H264QuantDC(&dcs, s.qp) > 0
	md.lumaDC = dcs
	md.cbpLuma = lumaCBP(&md.lumaNZ)
}

// encodeI4Into performs the sequential I4×4 pipeline, choosing a mode per
// block and reconstructing as it goes.
//
//hdvlint:noalloc
func (s *rowEnc) encodeI4Into(src, recon *frame.Frame, px, py int, md *mbData) {
	md.mode = mI4x4
	for bi := 0; bi < 16; bi++ {
		bx, by := 4*(bi%4), 4*(bi/4)
		gx4, gy4 := (px+bx)/4, (py+by)/4
		av := availI4(gx4, gy4, s.meta.w4, s.top4())
		var best [16]byte
		bestMode, bestCost := -1, 1<<30
		var cand [16]byte
		var cands [numI4Modes]int
		for _, mode := range i4Candidates(av, &cands) {
			predI4(cand[:], 4, recon.Y, recon.YOrigin, recon.YStride, px+bx, py+by, mode, av)
			cost := s.sadBlock(src, px+bx, py+by, 4, 4, cand[:], 4) + s.lambda*2
			if mode == i4DC {
				cost -= s.lambda * 2 // cheap-mode bias
			}
			if cost < bestCost {
				bestCost = cost
				bestMode = mode
				best = cand
			}
		}
		md.i4Modes[bi] = bestMode

		var blk [16]int32
		codec.Residual4(&blk, src.Y, src.YOrigin+(py+by)*src.YStride+px+bx, src.YStride, best[:], 0, 4, s.kern)
		dct.Forward4(&blk)
		nz := quant.H264Quant(&blk, s.qp, true)
		md.luma[bi] = blk
		md.lumaNZ[bi] = nz > 0

		// Immediate reconstruction: later blocks predict from it.
		s.reconI4Block(recon, px, py, bi, &best, blk)
	}
	md.cbpLuma = lumaCBP(&md.lumaNZ)
}

// finishIntraMB predicts and codes the chroma of an intra macroblock whose
// luma md holds, and reconstructs the macroblock.
//
//hdvlint:noalloc
func (s *rowEnc) finishIntraMB(src, recon *frame.Frame, px, py int, md *mbData) {
	s.predictIntraChroma(recon, px, py)
	s.transformChroma(src, px, py, true, md)
	s.reconIntraMB(recon, px, py, md)
}

// i4CostEstimate returns the summed best-mode SAD over the 16 blocks,
// predicting from the source (cheap approximation used only for the
// I4-vs-I16 decision).
//
//hdvlint:noalloc
func (s *rowEnc) i4CostEstimate(src, recon *frame.Frame, px, py int) int {
	total := 0
	var cand [16]byte
	for bi := 0; bi < 16; bi++ {
		bx, by := 4*(bi%4), 4*(bi/4)
		gx4, gy4 := (px+bx)/4, (py+by)/4
		av := availI4(gx4, gy4, s.meta.w4, s.top4())
		best := 1 << 30
		var cands [numI4Modes]int
		for _, mode := range i4Candidates(av, &cands) {
			predI4(cand[:], 4, recon.Y, recon.YOrigin, recon.YStride, px+bx, py+by, mode, av)
			if sad := s.sadBlock(src, px+bx, py+by, 4, 4, cand[:], 4); sad < best {
				best = sad
			}
		}
		total += best + s.lambda*3
	}
	return total
}

// --- I macroblocks ---------------------------------------------------------------

// clearMB zeroes the luma of the macroblock at (px, py).
//
//hdvlint:noalloc
func clearMB(f *frame.Frame, px, py int) {
	off := f.YOrigin + py*f.YStride + px
	for y := 0; y < 16; y++ {
		clear(f.Y[off+y*f.YStride : off+y*f.YStride+16])
	}
}

//hdvlint:noalloc
func (s *rowEnc) decideIMB(src, recon *frame.Frame, mbx, mby int, rec *mbRec) {
	px, py := mbx*16, mby*16
	md := &rec.md

	i16Mode, i16Cost := s.bestI16(src, recon, px, py)
	// The I4 estimate predicts from already-reconstructed pixels only
	// approximately (blocks inside the MB are not yet coded), so bias I16.
	// Those uncoded pixels read as zero, as in a newly allocated frame:
	// the driver recycles reconstructions, so clear them first.
	clearMB(recon, px, py)
	i4Cost := s.i4CostEstimate(src, recon, px, py) + s.lambda*24

	if i4Cost < i16Cost {
		rec.kind = recI4
		s.encodeI4Into(src, recon, px, py, md)
	} else {
		rec.kind = recI16
		s.encodeI16Into(src, recon, px, py, i16Mode, md)
	}
	s.finishIntraMB(src, recon, px, py, md)
}

// --- P macroblocks ---------------------------------------------------------------

// partGeom lists partition geometry per P mode (mP16x16..mP8x8): offsets
// and sizes in pixels.
var partGeom = [...][][4]int{
	mP16x16: {{0, 0, 16, 16}},
	mP16x8:  {{0, 0, 16, 8}, {0, 8, 16, 8}},
	mP8x16:  {{0, 0, 8, 16}, {8, 0, 8, 16}},
	mP8x8:   {{0, 0, 8, 8}, {8, 0, 8, 8}, {0, 8, 8, 8}, {8, 8, 8, 8}},
}

// partModes lists the sub-partition hypotheses tried when 16×16 leaves
// residual energy, in decision order.
var partModes = [3]int{mP16x8, mP8x16, mP8x8}

//hdvlint:noalloc
func (s *rowEnc) decidePMB(src, recon *frame.Frame, mbx, mby int, rec *mbRec) {
	px, py := mbx*16, mby*16
	bx4, by4 := px/4, py/4
	nRefs := s.e.refs.Len()
	mvp := s.meta.predictMV(bx4, by4, 4, s.top4())

	// 16×16 search across references.
	bestRef := int8(0)
	var bestMV motion.MV
	bestCost := 1 << 30
	bestSAD := 0
	for ri := 0; ri < nRefs; ri++ {
		mv, sad := s.searchRef(src, s.e.refs.Get(ri), px, py, 16, 16, mvp, s.tmpY[:])
		cost := sad + s.lambda*(mvdBits(mv, mvp)+2*ri)
		if cost < bestCost {
			bestCost = cost
			bestSAD = sad
			bestRef = int8(ri)
			bestMV = mv
		}
	}
	ref := s.e.refs.Get(int(bestRef))
	mode := mP16x16
	mvs := [4]motion.MV{bestMV}

	// Partition hypotheses only when 16×16 leaves real residual energy.
	if bestSAD > 16*16*3 {
		for _, m := range partModes {
			total := s.lambda * 4 // mode overhead
			var pmvs [4]motion.MV
			for pi, g := range partGeom[m] {
				mv, sad := s.searchRef(src, ref, px+g[0], py+g[1], g[2], g[3], bestMV, s.tmpY[:])
				pmvs[pi] = mv
				total += sad + s.lambda*mvdBits(mv, bestMV)
			}
			if total < bestCost {
				bestCost = total
				mode = m
				mvs = pmvs
			}
		}
	}

	// Intra hypothesis.
	md := &rec.md
	i16Mode, i16Cost := s.bestI16(src, recon, px, py)
	if i16Cost+s.lambda*16 < bestCost {
		rec.kind = recPIntra
		s.encodeI16Into(src, recon, px, py, i16Mode, md)
		s.finishIntraMB(src, recon, px, py, md)
		return
	}

	// Build the inter prediction for the chosen mode.
	parts := partGeom[mode]
	for pi, g := range parts {
		s.mcLumaInto(ref, px+g[0], py+g[1], g[2], g[3], mvs[pi], s.predY[g[1]*16+g[0]:])
		s.mcChromaPart(ref, px, py, g[0], g[1], g[2], g[3], mvs[pi])
	}

	md.mode = mode
	md.ref = bestRef
	md.mvs = mvs
	s.transformLumaInter(src, px, py, md)
	s.transformChroma(src, px, py, false, md)

	// P-skip: 16×16, ref 0, MV == predictor, no residual. Its one
	// partition enters the meta grid like a coded 16×16's.
	rec.kind = recPInter
	if mode == mP16x16 && bestRef == 0 && bestMV == mvp &&
		md.cbpLuma == 0 && md.cbpChroma == 0 {
		rec.kind = recSkip
	}
	// The predictor for each partition is sampled between setBlock calls,
	// exactly where the serial code wrote the mvd fields — the recorded
	// pmvp values reproduce that interleaving at emission time.
	for pi, g := range parts {
		rec.pmvp[pi] = s.meta.predictMV(bx4+g[0]/4, by4+g[1]/4, g[2]/4, s.top4())
		s.meta.setBlock(bx4+g[0]/4, by4+g[1]/4, g[2]/4, g[3]/4, mvs[pi], bestRef)
	}
	s.reconInterMB(recon, px, py, md)
}

// --- B macroblocks ---------------------------------------------------------------

//hdvlint:noalloc
func (s *rowEnc) decideBMB(src, recon *frame.Frame, mbx, mby int, rec *mbRec) {
	px, py := mbx*16, mby*16
	bx4, by4 := px/4, py/4
	fwdRef := s.e.refs.Get(1)
	bwdRef := s.e.refs.Get(0)
	mvpF := s.meta.predictMV(bx4, by4, 4, s.top4())

	var fwdPred, bwdPred [256]byte
	fwdMV, fwdSAD := s.searchRef(src, fwdRef, px, py, 16, 16, mvpF, fwdPred[:])
	bwdMV, bwdSAD := s.searchRef(src, bwdRef, px, py, 16, 16, s.bwdPredRow, bwdPred[:])

	var bi [256]byte
	copy(bi[:], fwdPred[:])
	interp.Avg(bi[:], 16, bwdPred[:], 16, 16, 16, s.kern)
	biSAD := s.sadBlock(src, px, py, 16, 16, bi[:], 16)

	fwdCost := fwdSAD + s.lambda*mvdBits(fwdMV, mvpF)
	bwdCost := bwdSAD + s.lambda*mvdBits(bwdMV, s.bwdPredRow)
	biCost := biSAD + s.lambda*(mvdBits(fwdMV, mvpF)+mvdBits(bwdMV, s.bwdPredRow)+4)

	mode := mBFwd
	best := fwdCost
	if bwdCost < best {
		mode, best = mBBwd, bwdCost
	}
	if biCost < best {
		mode, best = mBBi, biCost
	}

	md := &rec.md
	i16Mode, i16Cost := s.bestI16(src, recon, px, py)
	if i16Cost+s.lambda*16 < best {
		rec.kind = recBIntra
		s.encodeI16Into(src, recon, px, py, i16Mode, md)
		s.finishIntraMB(src, recon, px, py, md)
		return
	}

	// Assemble the final prediction.
	switch mode {
	case mBFwd:
		copy(s.predY[:], fwdPred[:])
	case mBBwd:
		copy(s.predY[:], bwdPred[:])
	case mBBi:
		copy(s.predY[:], bi[:])
	}
	s.mcChromaB(mode, fwdRef, bwdRef, px, py, fwdMV, bwdMV)

	md.mode = mode
	s.transformLumaInter(src, px, py, md)
	s.transformChroma(src, px, py, false, md)

	// B-skip: forward, MV == predictor, no residual.
	rec.kind = recBInter
	if mode == mBFwd && fwdMV == mvpF && md.cbpLuma == 0 && md.cbpChroma == 0 {
		rec.kind = recSkip
	}
	md.mvs[0], md.mvs[1] = fwdMV, bwdMV
	rec.pmvp[0], rec.pmvp[1] = mvpF, s.bwdPredRow
	if mode != mBFwd {
		s.bwdPredRow = bwdMV
	}
	mv := fwdMV // mBFwd, mBBi
	if mode == mBBwd {
		mv = bwdMV
	}
	s.meta.setBlock(bx4, by4, 4, 4, mv, 0)
	s.reconInterMB(recon, px, py, md)
}
