package bitstream

import (
	"math/bits"
	"math/rand"
	"testing"
)

// The reader this package shipped before the wide-refill rewrite, kept
// verbatim as the specification the new Reader is tested against: a
// right-aligned accumulator refilled one byte per loop iteration, and
// Exp-Golomb reads built from a 32-bit peek and a second ReadBits call.
// It is slow and obviously correct; nothing outside the tests uses it.

type refReader struct {
	buf []byte
	pos int // next byte index
	acc uint64
	n   uint // valid bits in acc
	err error
}

func (r *refReader) reset(buf []byte) { *r = refReader{buf: buf} }

func (r *refReader) Err() error { return r.err }

func (r *refReader) fill() {
	for r.n <= 56 && r.pos < len(r.buf) {
		r.acc = r.acc<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.n += 8
	}
}

func (r *refReader) ReadBits(n uint) uint64 {
	if n > 57 {
		panic("bitstream: ReadBits out of range")
	}
	if n == 0 {
		return 0
	}
	if r.n < n {
		r.fill()
		if r.n < n {
			r.err = ErrOverrun
			r.n = 0
			return 0
		}
	}
	r.n -= n
	v := (r.acc >> r.n) & ((1 << n) - 1)
	return v
}

func (r *refReader) PeekBits(n uint) uint64 {
	if n > 57 {
		panic("bitstream: PeekBits out of range")
	}
	if r.n < n {
		r.fill()
	}
	if r.n >= n {
		return (r.acc >> (r.n - n)) & ((1 << n) - 1)
	}
	// Fewer than n bits remain: left-align what we have.
	return (r.acc & ((1 << r.n) - 1)) << (n - r.n)
}

func (r *refReader) BitsRemaining() int {
	return int(r.n) + 8*(len(r.buf)-r.pos)
}

func (r *refReader) AlignByte() {
	if rem := r.n % 8; rem != 0 {
		r.ReadBits(rem)
	}
}

// refReadUE is entropy.ReadUE as it was.
func refReadUE(r *refReader) uint32 {
	peek := uint32(r.PeekBits(32))
	if peek != 0 {
		lz := uint(bits.LeadingZeros32(peek))
		if lz <= 28 { // whole code within the peek window
			return uint32(r.ReadBits(2*lz+1) - 1)
		}
	}
	// Slow path: long codes or end of stream.
	zeros := uint(0)
	for r.ReadBits(1) == 0 {
		zeros++
		if zeros > 32 || r.Err() != nil {
			return 0
		}
	}
	rest := r.ReadBits(zeros)
	return uint32((1<<zeros | rest) - 1)
}

// refReadSE is entropy.ReadSE as it was.
func refReadSE(r *refReader) int32 {
	u := refReadUE(r)
	if u%2 == 1 {
		return int32(u/2 + 1)
	}
	return -int32(u / 2)
}

// expGolombTails are the bytes put behind a 16-bit prefix: zeros (long
// codes), ones (every code ends at once) and two mixed patterns.
var expGolombTails = [][]byte{
	{0, 0, 0, 0, 0, 0, 0, 0, 0},
	{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	{0x00, 0x00, 0x01, 0x5a, 0xc3, 0x00, 0x80, 0x7e, 0x11},
	{0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x01, 0xfe},
}

// TestReferenceExpGolomb reads ue and se from every 16-bit prefix followed
// by every tail length 0-9 bytes, at every bit offset of the first byte,
// with the new and the old reader. Wherever the old reader ends without an
// error, value and bits consumed must be equal; the error state must be
// equal everywhere. Two documented differences, both in states the old
// code already reported or should have: a read that overruns returns 0 (the
// old arithmetic returned 0-1 and -2^31 for a truncated code), and a code
// no 32-bit value has — a zero prefix longer than 32 bits, or 32 zeros and
// a remainder that overflows — is now a sticky error instead of a silent 0
// or a silently truncated value.
func TestReferenceExpGolomb(t *testing.T) {
	buf := make([]byte, 0, 16)
	var ref refReader
	var got Reader
	for prefix := 0; prefix < 1<<16; prefix++ {
		for _, tail := range expGolombTails {
			for tl := 0; tl <= len(tail); tl++ {
				buf = append(buf[:0], byte(prefix>>8), byte(prefix))
				buf = append(buf, tail[:tl]...)
				for skip := uint(0); skip < 8; skip += 3 {
					for _, signed := range []bool{false, true} {
						ref.reset(buf)
						got.Reset(buf)
						ref.ReadBits(skip)
						got.ReadBits(skip)
						var want, have int64
						if signed {
							want, have = int64(refReadSE(&ref)), int64(got.ReadSE())
						} else {
							want, have = int64(refReadUE(&ref)), int64(got.ReadUE())
						}
						if ref.Err() == nil && got.Err() == errLongCode {
							if consumed := len(buf)*8 - int(skip) - ref.BitsRemaining(); consumed < 33 {
								t.Fatalf("% x skip %d: long-code error on a %d-bit code", buf, skip, consumed)
							}
							continue
						}
						if (ref.Err() != nil) != (got.Err() != nil) {
							t.Fatalf("% x skip %d signed=%v: err %v, reference %v", buf, skip, signed, got.Err(), ref.Err())
						}
						if ref.Err() != nil {
							if have != 0 {
								t.Fatalf("% x skip %d signed=%v: %d after overrun, want 0", buf, skip, signed, have)
							}
							continue
						}
						if have != want || got.BitsRemaining() != ref.BitsRemaining() {
							t.Fatalf("% x skip %d signed=%v: read %d leaving %d bits, reference %d leaving %d",
								buf, skip, signed, have, got.BitsRemaining(), want, ref.BitsRemaining())
						}
					}
				}
			}
		}
	}
}

// TestReferenceLongPrefix pins the one deliberate difference: 33 or more
// zero bits ahead of the marker (the old reader returned 0, consumed 33
// bits and said nothing) and 32 zeros with an overflowing remainder (it
// returned the low 32 bits). The new reader fails the stream.
func TestReferenceLongPrefix(t *testing.T) {
	buf := []byte{0, 0, 0, 0, 0x40, 0xff, 0xff, 0xff, 0xff, 0xff}
	ref := &refReader{buf: buf}
	if v := refReadUE(ref); v != 0 || ref.Err() != nil || ref.BitsRemaining() != 80-33 {
		t.Fatalf("reference: %d, err %v, %d bits left", v, ref.Err(), ref.BitsRemaining())
	}
	r := NewReader(buf)
	if v := r.ReadUE(); v != 0 || r.Err() == nil {
		t.Fatalf("ReadUE = %d, err %v; want 0 and an error", v, r.Err())
	}
	if v := r.ReadBits(8); v != 0 || r.BitsRemaining() != 0 {
		t.Fatalf("reader still delivers after a bad code: %#x, %d bits left", v, r.BitsRemaining())
	}
	// 32 zeros is the longest valid prefix, and ue(2^32-1) its only code.
	buf = []byte{0, 0, 0, 0, 0x80, 0, 0, 0, 0}
	if v := NewReader(buf).ReadUE(); v != 1<<32-1 {
		t.Fatalf("ue with a 32-zero prefix = %#x", v)
	}
	buf[8] = 0x80
	r = NewReader(buf)
	if v := r.ReadUE(); v != 0 || r.Err() == nil {
		t.Fatalf("65-bit code of 2^32: ReadUE = %d, err %v; want 0 and an error", v, r.Err())
	}
}

// TestReferenceOpTape drives both readers with the same random tape of
// read/peek/skip/align/ue/se operations over random buffers of every small
// length, comparing every returned value, BitsRemaining and the error
// state after every step. Past the first error only the contract is
// compared (zeros, sticky error, nothing remaining), not the garbage the
// old arithmetic produced.
func TestReferenceOpTape(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 20000; trial++ {
		buf := make([]byte, rng.Intn(40))
		rng.Read(buf)
		if trial%3 == 0 { // sparse buffers make long Exp-Golomb codes
			for i := range buf {
				buf[i] &= byte(rng.Intn(256)) & byte(rng.Intn(256))
			}
		}
		ref := &refReader{buf: buf}
		got := NewReader(buf)
		for step := 0; step < 64; step++ {
			n := uint(rng.Intn(58))
			op := rng.Intn(6)
			var want, have uint64
			switch op {
			case 0:
				want, have = ref.ReadBits(n), got.ReadBits(n)
			case 1:
				want, have = ref.PeekBits(n), got.PeekBits(n)
			case 2:
				ref.ReadBits(n)
				got.SkipBits(n)
			case 3:
				ref.AlignByte()
				got.AlignByte()
			case 4:
				want, have = uint64(refReadUE(ref)), uint64(got.ReadUE())
			default:
				want, have = uint64(uint32(refReadSE(ref))), uint64(uint32(got.ReadSE()))
			}
			if got.Err() != nil {
				if ref.Err() == nil && got.Err() != errLongCode {
					t.Fatalf("trial %d step %d op %d: err %v, reference has none", trial, step, op, got.Err())
				}
				if have != 0 || got.BitsRemaining() != 0 {
					t.Fatalf("trial %d step %d op %d: %#x and %d bits after an error", trial, step, op, have, got.BitsRemaining())
				}
				break
			}
			if ref.Err() != nil {
				t.Fatalf("trial %d step %d op %d: reference overran, new reader did not", trial, step, op)
			}
			if have != want || got.BitsRemaining() != ref.BitsRemaining() {
				t.Fatalf("trial %d step %d op %d n %d: %#x leaving %d, reference %#x leaving %d",
					trial, step, op, n, have, got.BitsRemaining(), want, ref.BitsRemaining())
			}
		}
	}
}
