package h264

import (
	"math/bits"
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

// BenchmarkCABACDecodeBins replays the exact symbol sequence of a real
// slice — a riverbed 720p I frame at the paper's quantizer, one slice —
// through the range decoder: the same contexts, the same mix of context
// bins, bypass bins and UE/SE binarisations the slice decoder issues, with
// none of its prediction or reconstruction around them.
func BenchmarkCABACDecodeBins(b *testing.B) {
	cfg := codec.Default(1280, 720)
	cfg.Kernels = kernel.SWAR
	enc, err := NewEncoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := enc.slices[0]
	rec := &binRecorder{symWriter: s.w, ctxIndex: map[*entropy.Prob]uint16{}}
	models := flatContexts(s.ctx)
	for i, p := range models {
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
	slice := pkts[0].Payload[1+off:]

	ctx := make([]entropy.Prob, len(models))
	var d entropy.Decoder
	sink := 0
	b.SetBytes(int64(len(slice)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entropy.ResetProbs(ctx)
		d.Reset(slice)
		for _, op := range rec.ops {
			switch op.kind {
			case 0:
				sink += d.DecodeBit(&ctx[op.ctx])
			case 1:
				sink += d.DecodeBypass()
			case 2:
				sink += int(d.DecodeUE(ctx[op.ctx:op.ctx+uint16(op.nctx)], int(op.escape)))
			default:
				sink += int(d.DecodeSE(ctx[op.ctx:op.ctx+uint16(op.nctx)], int(op.escape)))
			}
		}
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rec.bins), "ns/bin")
	b.ReportMetric(float64(rec.bins)/float64(len(slice)*8), "bins/bit")
	if sink == -1 {
		b.Log(sink)
	}
}
