package bitstream

import (
	"math/bits"
	"testing"
)

// FuzzBitReader drives a Reader with an op tape derived from the fuzz
// input: each op byte selects read/peek/skip and a width, or align/ue/se.
// Whatever the tape does, the Reader must never panic, never report
// negative remaining bits, and must return zeros once it has overrun; an
// Exp-Golomb read that succeeds must have consumed exactly the bits its
// value needs.
func FuzzBitReader(f *testing.F) {
	// Seed corpus from valid streams produced by the Writer.
	w := NewWriter(16)
	w.WriteBits(0x5a5, 12)
	w.WriteBits(1, 1)
	w.AlignByte()
	w.WriteBits(0xffff, 16)
	valid := append([]byte(nil), w.Bytes()...)
	f.Add(valid, valid)
	f.Add([]byte{}, []byte{1, 2, 3})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, []byte{57, 0, 1, 32, 8})
	f.Add([]byte{0x00, 0x41, 0xa6, 0x42, 0x00, 0x00, 0x00, 0x00, 0x80}, []byte{0xc1, 0xc2, 0xc1, 0x03, 0xc2, 0xc1})

	f.Fuzz(func(t *testing.T, data, ops []byte) {
		r := NewReader(data)
		for _, op := range ops {
			n := uint(op & 0x3f)
			if n > 57 {
				n = 57
			}
			before := r.BitsRemaining()
			if before < 0 {
				t.Fatalf("negative BitsRemaining %d", before)
			}
			switch op >> 6 {
			case 0:
				v := r.ReadBits(n)
				if n < 57 && v >= 1<<n {
					t.Fatalf("ReadBits(%d) = %#x exceeds %d bits", n, v, n)
				}
				if r.Err() != nil && v != 0 {
					t.Fatalf("ReadBits(%d) = %#x after overrun, want 0", n, v)
				}
			case 1:
				p := r.PeekBits(n)
				if r.Err() == nil {
					if got := r.ReadBits(n); r.Err() == nil && got != p {
						t.Fatalf("PeekBits(%d) = %#x but ReadBits = %#x", n, p, got)
					}
				}
			case 2:
				r.SkipBits(n)
			default:
				switch n % 3 {
				case 0:
					r.AlignByte()
				case 1:
					checkExpGolomb(t, r, before, uint64(r.ReadUE()))
				default:
					v := int64(r.ReadSE())
					if v > 0 {
						v = 2*v - 1
					} else {
						v = -2 * v
					}
					checkExpGolomb(t, r, before, uint64(v))
				}
			}
			if after := r.BitsRemaining(); after > before {
				t.Fatalf("BitsRemaining grew %d -> %d", before, after)
			}
		}
	})
}

// checkExpGolomb checks one ue read (or an se read mapped back to its code
// number): 0 after an error, otherwise 2·len(v+1)−1 bits consumed.
func checkExpGolomb(t *testing.T, r *Reader, before int, v uint64) {
	t.Helper()
	if r.Err() != nil {
		if v != 0 {
			t.Fatalf("Exp-Golomb read returned %d with error %v", v, r.Err())
		}
		return
	}
	if used, want := before-r.BitsRemaining(), 2*bits.Len64(v+1)-1; used != want {
		t.Fatalf("Exp-Golomb read of %d consumed %d bits, want %d", v, used, want)
	}
}

// FuzzBitRoundTrip writes fuzz-chosen values through the Writer and reads
// them back, checking writer/reader symmetry for arbitrary widths.
func FuzzBitRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint8(1), uint64(1), uint8(57))
	f.Add(uint64(0xdead), uint8(16), uint64(0x1), uint8(3))
	f.Fuzz(func(t *testing.T, a uint64, an uint8, b uint64, bn uint8) {
		na := uint(an)%57 + 1
		nb := uint(bn)%57 + 1
		w := NewWriter(16)
		w.WriteBits(a, na)
		w.WriteBits(b, nb)
		r := NewReader(w.Bytes())
		wantA := a & ((1 << na) - 1)
		wantB := b & ((1 << nb) - 1)
		if got := r.ReadBits(na); got != wantA {
			t.Fatalf("ReadBits(%d) = %#x, want %#x", na, got, wantA)
		}
		if got := r.ReadBits(nb); got != wantB {
			t.Fatalf("ReadBits(%d) = %#x, want %#x", nb, got, wantB)
		}
		if r.Err() != nil {
			t.Fatalf("unexpected error: %v", r.Err())
		}
	})
}
