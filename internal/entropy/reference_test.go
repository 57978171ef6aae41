package entropy

import (
	"math/rand"
	"testing"
)

// The range decoder this package shipped before the preloaded-word
// rewrite, kept verbatim as the specification the new Decoder is tested
// against: one bounds-checked nextByte call per renormalisation byte, one
// DecodeBypass call per bypass bin. Nothing outside the tests uses it.

type refDecoder struct {
	rng  uint32
	code uint32
	buf  []byte
	pos  int
}

func newRefDecoder(buf []byte) *refDecoder {
	d := &refDecoder{rng: 0xFFFFFFFF, buf: buf, pos: 1} // first byte is always 0
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | uint32(d.nextByte())
	}
	return d
}

func (d *refDecoder) nextByte() byte {
	if d.pos < len(d.buf) {
		b := d.buf[d.pos]
		d.pos++
		return b
	}
	d.pos++
	return 0
}

func (d *refDecoder) DecodeBit(p *Prob) int {
	bound := (d.rng >> probBits) * uint32(*p)
	var bit int
	if d.code < bound {
		d.rng = bound
		*p += (1<<probBits - *p) >> probMoves
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> probMoves
		bit = 1
	}
	for d.rng < topValue {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.nextByte())
	}
	return bit
}

func (d *refDecoder) DecodeBypass() int {
	d.rng >>= 1
	var bit int
	if d.code >= d.rng {
		d.code -= d.rng
		bit = 1
	}
	for d.rng < topValue {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.nextByte())
	}
	return bit
}

func (d *refDecoder) DecodeBypassBits(n uint) uint32 {
	var v uint32
	for i := uint(0); i < n; i++ {
		v = v<<1 | uint32(d.DecodeBypass())
	}
	return v
}

func (d *refDecoder) DecodeUE(ctx []Prob, escape int) uint32 {
	v := uint32(0)
	i := 0
	for ; i < escape; i++ {
		if d.DecodeBit(&ctx[min(i, len(ctx)-1)]) == 0 {
			return v
		}
		v++
	}
	// Escape suffix: bypass Exp-Golomb.
	zeros := uint(0)
	for d.DecodeBypass() == 0 {
		zeros++
		if zeros > 32 {
			return v
		}
	}
	rest := uint64(0)
	for j := uint(0); j < zeros; j++ {
		rest = rest<<1 | uint64(d.DecodeBypass())
	}
	return v + uint32((1<<zeros|rest)-1)
}

func (d *refDecoder) DecodeSE(ctx []Prob, escape int) int32 {
	mag := int32(d.DecodeUE(ctx, escape))
	if mag == 0 {
		return 0
	}
	if d.DecodeBypass() == 1 {
		return -mag
	}
	return mag
}

// rangeOp is one decoder call of the differential tapes below.
type rangeOp struct {
	kind   int // 0 bit, 1 bypass, 2 bypass bits, 3 ue, 4 se
	ctx    int // context (bit) or first context (ue, se)
	nctx   int // contexts of a ue/se prefix
	escape int
	n      uint  // bypass bits
	v      int64 // value to encode
}

func randomOps(rng *rand.Rand, n, nctx int) []rangeOp {
	ops := make([]rangeOp, n)
	bias := make([]int, nctx) // per-context P(1) in per cent, so contexts adapt apart
	for i := range bias {
		bias[i] = rng.Intn(101)
	}
	for i := range ops {
		o := rangeOp{kind: rng.Intn(5), ctx: rng.Intn(nctx)}
		switch o.kind {
		case 0:
			if rng.Intn(100) < bias[o.ctx] {
				o.v = 1
			}
		case 1:
			o.v = int64(rng.Intn(2))
		case 2:
			o.n = uint(rng.Intn(20))
			o.v = int64(rng.Uint32()) & (1<<o.n - 1)
		default:
			o.nctx = 1 + rng.Intn(nctx-o.ctx)
			o.escape = 1 + rng.Intn(9)
			// Mostly small values, now and then a long escape suffix.
			o.v = int64(rng.Intn(12))
			if rng.Intn(8) == 0 {
				o.v = int64(rng.Uint32() >> uint(rng.Intn(32)))
			}
			if o.kind == 4 {
				o.v &= 0x7fffffff
				if rng.Intn(2) == 0 {
					o.v = -o.v
				}
			}
		}
		ops[i] = o
	}
	return ops
}

func encodeOps(ops []rangeOp, nctx int) []byte {
	ctx := make([]Prob, nctx)
	ResetProbs(ctx)
	e := NewEncoder(len(ops))
	for _, o := range ops {
		switch o.kind {
		case 0:
			e.EncodeBit(&ctx[o.ctx], int(o.v))
		case 1:
			e.EncodeBypass(int(o.v))
		case 2:
			e.EncodeBypassBits(uint32(o.v), o.n)
		case 3:
			e.EncodeUE(ctx[o.ctx:o.ctx+o.nctx], o.escape, uint32(o.v))
		default:
			e.EncodeSE(ctx[o.ctx:o.ctx+o.nctx], o.escape, int32(o.v))
		}
	}
	return e.Finish()
}

// replayOps decodes the tape from data with both decoders and fails on the
// first value, context or over-read disagreement. checkValues additionally
// compares against the encoded values (valid, whole streams only).
func replayOps(t *testing.T, label string, ops []rangeOp, nctx int, data []byte, checkValues bool) {
	t.Helper()
	refCtx := make([]Prob, nctx)
	newCtx := make([]Prob, nctx)
	ResetProbs(refCtx)
	ResetProbs(newCtx)
	ref := newRefDecoder(data)
	d := NewDecoder(data)
	for i, o := range ops {
		var want, got int64
		switch o.kind {
		case 0:
			want, got = int64(ref.DecodeBit(&refCtx[o.ctx])), int64(d.DecodeBit(&newCtx[o.ctx]))
		case 1:
			want, got = int64(ref.DecodeBypass()), int64(d.DecodeBypass())
		case 2:
			want, got = int64(ref.DecodeBypassBits(o.n)), int64(d.DecodeBypassBits(o.n))
		case 3:
			want = int64(ref.DecodeUE(refCtx[o.ctx:o.ctx+o.nctx], o.escape))
			got = int64(d.DecodeUE(newCtx[o.ctx:o.ctx+o.nctx], o.escape))
		default:
			want = int64(ref.DecodeSE(refCtx[o.ctx:o.ctx+o.nctx], o.escape))
			got = int64(d.DecodeSE(newCtx[o.ctx:o.ctx+o.nctx], o.escape))
		}
		if got != want {
			t.Fatalf("%s: op %d (kind %d): decoded %d, reference %d", label, i, o.kind, got, want)
		}
		if checkValues && got != o.v {
			t.Fatalf("%s: op %d (kind %d): decoded %d, encoded %d", label, i, o.kind, got, o.v)
		}
		if d.rng != ref.rng || d.code != ref.code {
			t.Fatalf("%s: op %d: state (%#x, %#x), reference (%#x, %#x)", label, i, d.rng, d.code, ref.rng, ref.code)
		}
		// The reference counts every byte it asked for, real or not.
		if over := ref.pos > len(data); over != (d.Err() != nil) && !d.bad {
			t.Fatalf("%s: op %d: reference over-read %v, Err() = %v", label, i, over, d.Err())
		}
	}
	for i := range refCtx {
		if refCtx[i] != newCtx[i] {
			t.Fatalf("%s: context %d ended at %d, reference %d", label, i, newCtx[i], refCtx[i])
		}
	}
	if checkValues && (d.Err() != nil || d.pos-d.nb != len(data)) {
		t.Fatalf("%s: whole valid stream: Err() = %v, consumed %d of %d bytes", label, d.Err(), d.pos-d.nb, len(data))
	}
}

// TestReferenceRangeDecoder replays a million random bins and symbols over
// random contexts through the new decoder and the old one: whole valid
// streams (which must also reproduce the encoded values and end exactly
// at the last byte, with no over-read), the same streams cut at every
// length near the end and at random lengths — so the buffer ends in the
// middle of a renormalisation — and plain random bytes.
func TestReferenceRangeDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const nctx = 12
	total := 0
	for trial := 0; total < 1_000_000; trial++ {
		ops := randomOps(rng, 500+rng.Intn(4000), nctx)
		data := encodeOps(ops, nctx)
		replayOps(t, "valid", ops, nctx, data, true)
		for cut := len(data) - 1; cut >= 0 && cut > len(data)-12; cut-- {
			replayOps(t, "tail cut", ops, nctx, data[:cut], false)
		}
		replayOps(t, "random cut", ops, nctx, data[:rng.Intn(len(data))], false)
		junk := make([]byte, rng.Intn(600))
		rng.Read(junk)
		replayOps(t, "junk", ops, nctx, junk, false)
		total += len(ops)
	}
}

// TestReferenceBypassRuns aims at the batched bypass path: runs of every
// length 0-40 after a context bin, so that runs start at every distance
// from the next renormalisation.
func TestReferenceBypassRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ops []rangeOp
	for i := 0; i < 20000; i++ {
		ops = append(ops, rangeOp{kind: 0, ctx: rng.Intn(4), v: int64(rng.Intn(2))})
		n := uint(rng.Intn(33))
		ops = append(ops, rangeOp{kind: 2, n: n, v: int64(rng.Uint32()) & (1<<n - 1)})
	}
	replayOps(t, "bypass runs", ops, 4, encodeOps(ops, 4), true)
}
