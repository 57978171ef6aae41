// Package bitstream implements the MSB-first bit-level Writer and Reader
// under every bit-oriented syntax in the tree: the MPEG-2 and MPEG-4 VLC
// layers, H.264's Exp-Golomb ablation (EntropyVLC), and the fuzzers and
// benchmark probes that drive the two types directly.
//
// # Reader: the accumulator
//
// A Reader keeps the unread bits left-aligned in a 64-bit accumulator: the
// next bit of the stream is bit 63, the top n bits are valid, and every bit
// below them is either zero or already equal to the stream bit a later
// refill will put there. A refill tops the accumulator up to at least 57
// bits with one big-endian 8-byte load (a byte loop serves only the last
// seven bytes of a buffer), so a read of up to 57 bits needs at most one.
// Because the valid bits sit at the top, a fixed-width read is a shift, an
// Exp-Golomb read is one leading-zero count and one shift (ReadUE, ReadSE),
// and a table decoder can peek a window, look it up and skip the entry's
// length without masking anything (PeekBits, SkipBits; see
// codec.ReadRunLevels).
//
// # Reader: the end of the stream
//
// Whether a read fits is decided where the accumulator is refilled, not on
// every call, and the contract at the end is:
//
//   - a read that asks for more bits than remain returns 0, records
//     ErrOverrun and empties the reader: every later read returns 0 and
//     BitsRemaining reports 0, whatever was still buffered;
//   - the first error sticks (Err) — ErrOverrun, or the error of an
//     Exp-Golomb code no 32-bit value has; callers poll it once per block
//     or slice, not per symbol;
//   - PeekBits past the end returns the bits that exist followed by zeros
//     and records nothing, so a table decoder may always peek a full window
//     and find out from SkipBits whether the entry it matched was real.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrOverrun is returned when a reader is asked for more bits than remain.
var ErrOverrun = errors.New("bitstream: read past end of stream")

// Writer accumulates bits MSB-first into a growing byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	acc  uint64 // pending bits, left-aligned within the low `n` bits
	n    uint   // number of pending bits in acc (< 8 after flushAcc)
	bits int    // total bits written
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBits writes the low n bits of v, MSB first. n must be in [0, 57].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 57 {
		panic(fmt.Sprintf("bitstream: WriteBits n=%d out of range", n))
	}
	if n == 0 {
		return
	}
	v &= (1 << n) - 1
	w.acc = w.acc<<n | v
	w.n += n
	w.bits += int(n)
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.acc>>w.n))
	}
}

// WriteBit writes a single bit.
func (w *Writer) WriteBit(b int) {
	w.WriteBits(uint64(b&1), 1)
}

// BitsWritten reports the total number of bits written so far.
func (w *Writer) BitsWritten() int { return w.bits }

// Len reports the number of complete bytes buffered so far.
func (w *Writer) Len() int { return len(w.buf) }

// Bytes flushes any partial byte (padding with zero bits) and returns the
// underlying buffer. The Writer remains usable; further writes start on a
// byte boundary.
func (w *Writer) Bytes() []byte {
	w.AlignByte()
	return w.buf
}

// AlignByte pads the stream with zero bits up to the next byte boundary.
func (w *Writer) AlignByte() {
	if w.n > 0 {
		pad := 8 - w.n
		w.acc <<= pad
		w.buf = append(w.buf, byte(w.acc))
		w.acc = 0
		w.n = 0
		w.bits += int(pad)
	}
}

// AppendWriter appends src's entire bit sequence — complete bytes plus any
// pending partial byte — to w, without aligning either writer. The result
// is bit-for-bit what a single writer would hold after replaying both
// write sequences in order, which is what lets per-row writers concatenate
// into one slice stream. src is not modified and stays usable.
func (w *Writer) AppendWriter(src *Writer) {
	if w.n == 0 {
		// Byte-aligned destination: complete bytes copy wholesale.
		w.buf = append(w.buf, src.buf...)
		w.bits += 8 * len(src.buf)
	} else {
		for _, b := range src.buf {
			w.WriteBits(uint64(b), 8)
		}
	}
	if src.n > 0 {
		w.WriteBits(src.acc, src.n)
	}
}

// Reset clears the writer for reuse, keeping the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.n = 0
	w.bits = 0
}

// Reader consumes bits MSB-first from a byte slice. The package comment
// describes the accumulator invariant and the end-of-stream contract.
type Reader struct {
	buf []byte
	pos int    // next byte index
	acc uint64 // unread bits, left-aligned
	n   uint   // valid bits in acc
	err error
}

// errLongCode marks an Exp-Golomb code no 32-bit value has — more than 32
// leading zeros, or 32 and a non-zero remainder — so the stream is damaged.
var errLongCode = errors.New("bitstream: Exp-Golomb code exceeds 32 bits")

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset re-points the reader at buf and clears all state, allowing one
// Reader to serve many payloads without reallocation.
func (r *Reader) Reset(buf []byte) {
	*r = Reader{buf: buf}
}

// Err returns the first error encountered, if any: ErrOverrun, or the
// error of a malformed Exp-Golomb code.
func (r *Reader) Err() error { return r.err }

// refill tops acc up to at least 57 valid bits, or to everything that is
// left of the stream: one big-endian 8-byte load while eight bytes remain,
// a byte loop for the tail.
//
//hdvlint:noalloc
func (r *Reader) refill() {
	if r.n > 56 {
		return // no whole byte fits
	}
	if r.pos+8 <= len(r.buf) {
		k := (64 - r.n) >> 3 // whole bytes that fit below the valid bits
		r.acc |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.n
		r.pos += int(k)
		r.n += 8 * k
		return
	}
	for ; r.n <= 56 && r.pos < len(r.buf); r.pos++ {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.n)
		r.n += 8
	}
}

// fail records err (the first one sticks) and empties the reader, so that
// every later read returns 0 and BitsRemaining reports 0.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.acc, r.n, r.pos = 0, 0, len(r.buf)
}

// ReadBits reads n bits MSB-first. n must be in [0, 57]. After the end of
// the stream it returns 0 and records ErrOverrun.
//
//hdvlint:noalloc
func (r *Reader) ReadBits(n uint) uint64 {
	if n > r.n {
		return r.readBitsSlow(n)
	}
	v := r.acc >> (64 - n) // a shift by 64 (n == 0) is 0
	r.acc <<= n
	r.n -= n
	return v
}

// readBitsSlow is ReadBits when acc holds fewer than n bits: the one
// place the end of the stream is decided.
func (r *Reader) readBitsSlow(n uint) uint64 {
	r.fillFor(n)
	if n > r.n {
		r.fail(ErrOverrun)
		return 0
	}
	v := r.acc >> (64 - n)
	r.acc <<= n
	r.n -= n
	return v
}

// fillFor refills acc for an n-bit read or peek that found it short.
func (r *Reader) fillFor(n uint) {
	if n > 57 {
		panic(fmt.Sprintf("bitstream: read width n=%d out of range [0, 57]", n))
	}
	r.refill()
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() int {
	return int(r.ReadBits(1))
}

// PeekBits returns the next n bits without consuming them. Peeking past the
// end of the stream returns the available bits padded with zeros and does
// not set an error.
//
//hdvlint:noalloc
func (r *Reader) PeekBits(n uint) uint64 {
	if n > r.n {
		r.fillFor(n)
	}
	return r.acc >> (64 - n)
}

// SkipBits discards n bits.
//
//hdvlint:noalloc
func (r *Reader) SkipBits(n uint) {
	if n > r.n {
		r.readBitsSlow(n)
		return
	}
	r.acc <<= n
	r.n -= n
}

// ReadUE reads an unsigned Exp-Golomb code: z zero bits, a one, then z
// more bits. A code that lies whole in acc costs one leading-zero count
// and one shift; anything else — fewer than 2z+1 bits buffered, a code
// longer than a refill guarantees, the end of the stream — takes
// readUESlow. After an error it returns 0.
//
//hdvlint:noalloc
func (r *Reader) ReadUE() uint32 {
	w := 2*uint(bits.LeadingZeros64(r.acc)) + 1
	if w > r.n {
		return r.readUESlow()
	}
	return r.takeUE(w)
}

// takeUE consumes a w-bit Exp-Golomb code (w odd, w <= r.n, so w <= 63:
// the masks change nothing and let the shifts compile bare) from acc.
func (r *Reader) takeUE(w uint) uint32 {
	v := r.acc >> ((64 - w) & 63)
	r.acc <<= w & 63
	r.n -= w
	return uint32(v - 1)
}

func (r *Reader) readUESlow() uint32 {
	r.refill()
	z := uint(bits.LeadingZeros64(r.acc))
	if w := 2*z + 1; w <= r.n {
		return r.takeUE(w)
	}
	switch {
	case z > 32 && r.n > 32:
		r.fail(errLongCode)
		return 0
	case z >= r.n: // nothing but zeros before the end of the stream
		r.fail(ErrOverrun)
		return 0
	}
	// A 59- to 65-bit code, or one the stream ends in: prefix and value
	// separately, the second read deciding the overrun.
	r.ReadBits(z)
	v := r.ReadBits(z+1) - 1
	if r.err == nil && v > math.MaxUint32 {
		r.fail(errLongCode)
	}
	if r.err != nil {
		return 0
	}
	return uint32(v)
}

// ReadSE reads a signed Exp-Golomb code with the H.264 mapping
// (0, 1, 2, 3, 4, ... → 0, 1, -1, 2, -2, ...).
//
//hdvlint:noalloc
func (r *Reader) ReadSE() int32 {
	u := r.ReadUE()
	m := int32(u>>1 + u&1)
	if u&1 == 0 {
		m = -m
	}
	return m
}

// BitsRemaining reports how many unread bits remain.
func (r *Reader) BitsRemaining() int {
	return int(r.n) + 8*(len(r.buf)-r.pos)
}

// AlignByte discards bits up to the next byte boundary.
func (r *Reader) AlignByte() {
	if rem := r.n % 8; rem != 0 {
		r.ReadBits(rem)
	}
}
