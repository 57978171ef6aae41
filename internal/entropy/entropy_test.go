package entropy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hdvideobench/internal/bitstream"
)

func TestUERoundTrip(t *testing.T) {
	w := bitstream.NewWriter(64)
	values := []uint32{0, 1, 2, 3, 7, 8, 100, 65535, 1 << 20}
	for _, v := range values {
		WriteUE(w, v)
	}
	r := bitstream.NewReader(w.Bytes())
	for _, want := range values {
		if got := ReadUE(r); got != want {
			t.Fatalf("UE: got %d want %d", got, want)
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestUEKnownCodes(t *testing.T) {
	// ue(0) = "1", ue(1) = "010", ue(2) = "011", ue(3) = "00100".
	w := bitstream.NewWriter(8)
	WriteUE(w, 0)
	WriteUE(w, 1)
	WriteUE(w, 2)
	WriteUE(w, 3)
	if w.BitsWritten() != 1+3+3+5 {
		t.Fatalf("total bits = %d, want 12", w.BitsWritten())
	}
	r := bitstream.NewReader(w.Bytes())
	if r.ReadBits(1) != 1 {
		t.Fatal("ue(0) must be '1'")
	}
	if r.ReadBits(3) != 0b010 {
		t.Fatal("ue(1) must be '010'")
	}
}

func TestSERoundTrip(t *testing.T) {
	w := bitstream.NewWriter(64)
	values := []int32{0, 1, -1, 2, -2, 100, -100, 32767, -32768}
	for _, v := range values {
		WriteSE(w, v)
	}
	r := bitstream.NewReader(w.Bytes())
	for _, want := range values {
		if got := ReadSE(r); got != want {
			t.Fatalf("SE: got %d want %d", got, want)
		}
	}
}

// TestSEBits checks the cost estimate against what WriteSE really writes,
// and against the loop the three encoders used to carry.
func TestSEBits(t *testing.T) {
	loop := func(v int) int {
		if v < 0 {
			v = -v
		}
		u := 2 * v
		n := 1
		for u > 0 {
			u = (u - 1) >> 1
			n += 2
		}
		return n
	}
	for v := -70000; v <= 70000; v++ {
		w := bitstream.NewWriter(8)
		WriteSE(w, int32(v))
		if got := SEBits(v); got != w.BitsWritten() || got != loop(v) {
			t.Fatalf("SEBits(%d) = %d, WriteSE wrote %d, old loop %d", v, got, w.BitsWritten(), loop(v))
		}
	}
}

func TestSEProperty(t *testing.T) {
	check := func(vals []int32) bool {
		w := bitstream.NewWriter(64)
		for _, v := range vals {
			WriteSE(w, v/2) // halve to stay in mapping range
		}
		r := bitstream.NewReader(w.Bytes())
		for _, v := range vals {
			if ReadSE(r) != v/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeCoderBitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5000)
		bits := make([]int, n)
		// Biased source exercises adaptation.
		bias := rng.Intn(100)
		for i := range bits {
			if rng.Intn(100) < bias {
				bits[i] = 1
			}
		}
		encCtx := make([]Prob, 4)
		ResetProbs(encCtx)
		e := NewEncoder(1024)
		for i, b := range bits {
			e.EncodeBit(&encCtx[i%4], b)
		}
		data := e.Finish()

		decCtx := make([]Prob, 4)
		ResetProbs(decCtx)
		d := NewDecoder(data)
		for i, want := range bits {
			if got := d.DecodeBit(&decCtx[i%4]); got != want {
				t.Fatalf("trial %d bit %d: got %d want %d", trial, i, got, want)
			}
		}
	}
}

func TestRangeCoderCompressesBiasedSource(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 100000
	e := NewEncoder(n / 4)
	ctx := NewProb()
	ones := 0
	for i := 0; i < n; i++ {
		b := 0
		if rng.Intn(100) < 5 { // 5% ones → entropy ≈ 0.286 bits/symbol
			b = 1
			ones++
		}
		e.EncodeBit(&ctx, b)
	}
	data := e.Finish()
	bitsPerSymbol := float64(len(data)*8) / float64(n)
	if bitsPerSymbol > 0.45 {
		t.Fatalf("adaptive coder output %.3f bits/symbol for a 5%% source", bitsPerSymbol)
	}
}

func TestRangeCoderBypassRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]uint32, 500)
	e := NewEncoder(1024)
	for i := range vals {
		vals[i] = rng.Uint32() & 0xFFFF
		e.EncodeBypassBits(vals[i], 16)
	}
	d := NewDecoder(e.Finish())
	for i, want := range vals {
		if got := d.DecodeBypassBits(16); got != want {
			t.Fatalf("val %d: got %x want %x", i, got, want)
		}
	}
}

func TestRangeCoderMixedStream(t *testing.T) {
	// Interleave context bits, bypass bits, UE and SE values.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		type op struct {
			kind int
			v    int64
		}
		n := 2000
		ops := make([]op, n)
		for i := range ops {
			switch rng.Intn(4) {
			case 0:
				ops[i] = op{0, int64(rng.Intn(2))}
			case 1:
				ops[i] = op{1, int64(rng.Intn(2))}
			case 2:
				ops[i] = op{2, int64(rng.Intn(10000))}
			case 3:
				ops[i] = op{3, int64(rng.Intn(20001) - 10000)}
			}
		}
		encCtx := make([]Prob, 8)
		ResetProbs(encCtx)
		ueCtx := make([]Prob, 6)
		ResetProbs(ueCtx)
		e := NewEncoder(4096)
		for _, o := range ops {
			switch o.kind {
			case 0:
				e.EncodeBit(&encCtx[0], int(o.v))
			case 1:
				e.EncodeBypass(int(o.v))
			case 2:
				e.EncodeUE(ueCtx, 8, uint32(o.v))
			case 3:
				e.EncodeSE(ueCtx, 8, int32(o.v))
			}
		}
		data := e.Finish()

		decCtx := make([]Prob, 8)
		ResetProbs(decCtx)
		dueCtx := make([]Prob, 6)
		ResetProbs(dueCtx)
		d := NewDecoder(data)
		for i, o := range ops {
			switch o.kind {
			case 0:
				if got := d.DecodeBit(&decCtx[0]); int64(got) != o.v {
					t.Fatalf("trial %d op %d ctx bit: got %d want %d", trial, i, got, o.v)
				}
			case 1:
				if got := d.DecodeBypass(); int64(got) != o.v {
					t.Fatalf("trial %d op %d bypass: got %d want %d", trial, i, got, o.v)
				}
			case 2:
				if got := d.DecodeUE(dueCtx, 8); int64(got) != o.v {
					t.Fatalf("trial %d op %d UE: got %d want %d", trial, i, got, o.v)
				}
			case 3:
				if got := d.DecodeSE(dueCtx, 8); int64(got) != o.v {
					t.Fatalf("trial %d op %d SE: got %d want %d", trial, i, got, o.v)
				}
			}
		}
	}
}

func TestRangeCoderUEBoundaries(t *testing.T) {
	// Values at and around the escape boundary.
	ctxE := make([]Prob, 3)
	ResetProbs(ctxE)
	e := NewEncoder(64)
	values := []uint32{0, 1, 7, 8, 9, 100, 1 << 16}
	for _, v := range values {
		e.EncodeUE(ctxE, 8, v)
	}
	ctxD := make([]Prob, 3)
	ResetProbs(ctxD)
	d := NewDecoder(e.Finish())
	for _, want := range values {
		if got := d.DecodeUE(ctxD, 8); got != want {
			t.Fatalf("UE boundary: got %d want %d", got, want)
		}
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(64)
	ctx := NewProb()
	e.EncodeBit(&ctx, 1)
	e.Finish()
	e.Reset()
	ctx = NewProb()
	e.EncodeBit(&ctx, 0)
	e.EncodeBit(&ctx, 1)
	d := NewDecoder(e.Finish())
	dc := NewProb()
	if d.DecodeBit(&dc) != 0 || d.DecodeBit(&dc) != 1 {
		t.Fatal("encoder reuse after Reset failed")
	}
}

func TestProbAdaptationDirection(t *testing.T) {
	p := NewProb()
	e := NewEncoder(64)
	for i := 0; i < 100; i++ {
		e.EncodeBit(&p, 0)
	}
	if p <= probInit {
		t.Fatalf("after 100 zeros prob = %d, want > %d", p, probInit)
	}
	p = NewProb()
	for i := 0; i < 100; i++ {
		e.EncodeBit(&p, 1)
	}
	if p >= probInit {
		t.Fatalf("after 100 ones prob = %d, want < %d", p, probInit)
	}
}
