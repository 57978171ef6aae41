package h264

import (
	"math/bits"
	"slices"
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/entropy"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/seqgen"
)

// binOp is one symWriter call of a recorded slice.
type binOp struct {
	kind   uint8 // 0 bit, 1 bypass, 2 ue, 3 se
	escape uint8
	nctx   uint8
	ctx    uint16 // index of the (first) context in the flattened model set
}

// binRecorder is a symWriter that forwards to the slice's real writer and
// logs every call, with contexts named by their position in ctxIndex.
type binRecorder struct {
	symWriter
	ctxIndex map[*entropy.Prob]uint16
	ops      []binOp
	bins     int
}

func ueBins(v uint32, escape int) int {
	if int(v) < escape {
		return int(v) + 1
	}
	return escape + 2*bits.Len64(uint64(v)-uint64(escape)+1) - 1
}

func (w *binRecorder) bit(ctx *entropy.Prob, v int) {
	w.ops = append(w.ops, binOp{kind: 0, ctx: w.ctxIndex[ctx]})
	w.bins++
	w.symWriter.bit(ctx, v)
}

func (w *binRecorder) bypass(v int) {
	w.ops = append(w.ops, binOp{kind: 1})
	w.bins++
	w.symWriter.bypass(v)
}

func (w *binRecorder) ue(ctx []entropy.Prob, escape int, v uint32) {
	w.ops = append(w.ops, binOp{kind: 2, escape: uint8(escape), nctx: uint8(len(ctx)), ctx: w.ctxIndex[&ctx[0]]})
	w.bins += ueBins(v, escape)
	w.symWriter.ue(ctx, escape, v)
}

func (w *binRecorder) se(ctx []entropy.Prob, escape int, v int32) {
	w.ops = append(w.ops, binOp{kind: 3, escape: uint8(escape), nctx: uint8(len(ctx)), ctx: w.ctxIndex[&ctx[0]]})
	mag := v
	if mag < 0 {
		mag = -mag
	}
	w.bins += ueBins(uint32(mag), escape)
	if mag != 0 {
		w.bins++
	}
	w.symWriter.se(ctx, escape, v)
}

// flatContexts lists every model of c in declaration order.
func flatContexts(c *contexts) []*entropy.Prob {
	var out []*entropy.Prob
	for _, arr := range [][]entropy.Prob{
		c.skip[:], c.mbType[:], c.refIdx[:], c.mvd[:], c.i4Mode[:], c.i16Mode[:], c.chromaCBP[:], c.cbpLuma[:],
		c.cbf[:], c.sig[:], c.last[:], c.level[:], c.sigDC[:], c.lastDC[:], c.levelDC[:],
	} {
		for i := range arr {
			out = append(out, &arr[i])
		}
	}
	return out
}

// riverbedSlice encodes a riverbed 720p I frame at the paper's quantizer,
// one slice, and returns the slice's bytes, the recorder holding the
// symbol sequence its writer issued (contexts named by their index in
// flatContexts) and its bin count, and the encoder's context set.
func riverbedSlice(b *testing.B) (slice []byte, rec *binRecorder, c *contexts) {
	cfg := codec.Default(1280, 720)
	cfg.Kernels = kernel.SWAR
	enc, err := NewEncoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := enc.slices[0]
	rec = &binRecorder{symWriter: s.w, ctxIndex: map[*entropy.Prob]uint16{}}
	for i, p := range flatContexts(s.ctx) {
		rec.ctxIndex[p] = uint16(i)
	}
	s.w = rec
	pkts, err := enc.Encode(seqgen.New(seqgen.Riverbed, cfg.Width, cfg.Height).Frame(0))
	if err != nil || len(pkts) != 1 {
		b.Fatalf("%d packets: %v", len(pkts), err)
	}
	spans, off, err := codec.ParseSliceTable(pkts[0].Payload[1:], cfg.MBRows())
	if err != nil || len(spans) != 1 {
		b.Fatalf("%d slices: %v", len(spans), err)
	}
	return pkts[0].Payload[1+off:], rec, s.ctx
}

// blockOp is the op kind of one coefficient block read with DecodeCoeffs;
// its ctx is the block's cbf context and nctx its scan length.
const blockOp = 4

// coeffBlockOps folds the bins of each coefficient block in ops — a cbf
// bin, the significance map, the level/sign pairs — into one blockOp. The
// block's scan length is the map's length plus one when the map ran out;
// a map ended by a last flag fits the category's longest scan.
func coeffBlockOps(ops []binOp, idx map[*entropy.Prob]uint16, c *contexts) []binOp {
	in := func(op binOp, ps []entropy.Prob) bool {
		lo := idx[&ps[0]]
		return op.ctx >= lo && op.ctx < lo+uint16(len(ps))
	}
	longest := [4]uint8{catLuma: 16, catLumaDC: 16, catChromaDC: 4, catChromaAC: 15}
	var out []binOp
	for i := 0; i < len(ops); {
		op := ops[i]
		i++
		if op.kind != 0 || !in(op, c.cbf[:]) {
			out = append(out, op)
			continue
		}
		sigs, lasts, levels := 0, 0, 0
		for ; i < len(ops) && ops[i].kind == 0; i++ {
			if in(ops[i], c.sig[:]) || in(ops[i], c.sigDC[:]) {
				sigs++
			} else if in(ops[i], c.last[:]) || in(ops[i], c.lastDC[:]) {
				lasts++
			} else {
				break
			}
		}
		for ; i+1 < len(ops) && ops[i].kind == 2 && (in(ops[i], c.level[:]) || in(ops[i], c.levelDC[:])) && ops[i+1].kind == 1; i += 2 {
			levels++
		}
		n := longest[op.ctx-idx[&c.cbf[0]]]
		if sigs > 0 && levels > lasts { // the map ran out: no last flag ended it
			n = uint8(sigs + 1)
		}
		out = append(out, binOp{kind: blockOp, nctx: n, ctx: op.ctx})
	}
	return out
}

// coeffSets are the sig, last and level contexts of each block category,
// as flat index ranges of flatContexts.
type coeffSet struct{ sig, last, lvl [2]uint16 }

func coeffSets(idx map[*entropy.Prob]uint16, c *contexts) [4]coeffSet {
	r := func(ps []entropy.Prob) [2]uint16 { return [2]uint16{idx[&ps[0]], idx[&ps[0]] + uint16(len(ps))} }
	ac := coeffSet{r(c.sig[:]), r(c.last[:]), r(c.level[:])}
	dc := coeffSet{r(c.sigDC[:]), r(c.lastDC[:]), r(c.levelDC[:])}
	return [4]coeffSet{catLuma: ac, catLumaDC: dc, catChromaDC: dc, catChromaAC: ac}
}

// replay decodes one pass of ops from slice into the flat context set ctx.
func replay(d *entropy.Decoder, ctx []entropy.Prob, slice []byte, ops []binOp, sets *[4]coeffSet, cbf0 uint16) int {
	sink := 0
	entropy.ResetProbs(ctx)
	d.Reset(slice)
	for _, op := range ops {
		switch op.kind {
		case 0:
			sink += d.DecodeBit(&ctx[op.ctx])
		case 1:
			sink += d.DecodeBypass()
		case 2:
			sink += int(d.DecodeUE(ctx[op.ctx:op.ctx+uint16(op.nctx)], int(op.escape)))
		case 3:
			sink += int(d.DecodeSE(ctx[op.ctx:op.ctx+uint16(op.nctx)], int(op.escape)))
		default:
			cs := &sets[op.ctx-cbf0]
			scan := zigzag4[16-op.nctx:]
			if op.nctx == 4 {
				scan = dcScan2[:]
			}
			var blk [16]int32
			if d.DecodeCoeffs(&ctx[op.ctx], ctx[cs.sig[0]:cs.sig[1]], ctx[cs.last[0]:cs.last[1]], ctx[cs.lvl[0]:cs.lvl[1]], scan, blk[:]) {
				sink += int(blk[0])
			}
		}
	}
	return sink
}

// BenchmarkCABACDecodeBins replays the exact symbol sequence of a real
// slice — a riverbed 720p I frame at the paper's quantizer, one slice —
// through the range decoder: the same contexts, the same mix of context
// bins, bypass bins and UE/SE binarisations the slice decoder issues, with
// none of its prediction or reconstruction around them.
func BenchmarkCABACDecodeBins(b *testing.B) {
	slice, rec, _ := riverbedSlice(b)
	benchReplay(b, slice, rec.ops, rec.bins, nil, 0)
}

// BenchmarkCABACDecodeBlocks is BenchmarkCABACDecodeBins with every
// coefficient block read by one DecodeCoeffs call instead of a call per
// bin: the same slice, the same bins, the slice decoder's calls.
func BenchmarkCABACDecodeBlocks(b *testing.B) {
	slice, rec, c := riverbedSlice(b)
	ops := coeffBlockOps(rec.ops, rec.ctxIndex, c)
	sets := coeffSets(rec.ctxIndex, c)
	cbf0 := rec.ctxIndex[&c.cbf[0]]

	// Both replays must leave every context where the slice left it.
	var d entropy.Decoder
	want := make([]entropy.Prob, len(rec.ctxIndex))
	got := make([]entropy.Prob, len(rec.ctxIndex))
	replay(&d, want, slice, rec.ops, &sets, cbf0)
	replay(&d, got, slice, ops, &sets, cbf0)
	if d.Err() != nil || !slices.Equal(got, want) {
		b.Fatalf("block replay diverges from the bin replay (err %v)", d.Err())
	}
	benchReplay(b, slice, ops, rec.bins, &sets, cbf0)
}

func benchReplay(b *testing.B, slice []byte, ops []binOp, bins int, sets *[4]coeffSet, cbf0 uint16) {
	ctx := make([]entropy.Prob, len(flatContexts(newContexts())))
	var d entropy.Decoder
	sink := 0
	b.SetBytes(int64(len(slice)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += replay(&d, ctx, slice, ops, sets, cbf0)
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bins), "ns/bin")
	b.ReportMetric(float64(bins), "bins")
	b.ReportMetric(float64(bins)/float64(len(slice)*8), "bins/bit")
	if sink == -1 {
		b.Log(sink)
	}
}
