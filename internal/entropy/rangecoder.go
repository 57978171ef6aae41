package entropy

import (
	"encoding/binary"
	"math/bits"

	"hdvideobench/internal/bitstream"
)

// The range coder below is a carry-less binary arithmetic coder with
// adaptive 11-bit probabilities (the construction used by LZMA; the same
// coder class as H.264 CABAC's M-coder). Encoder and decoder are exact
// inverses for any interleaving of context-coded and bypass bits.

// probBits is the probability resolution; probInit is p=0.5.
const (
	probBits  = 11
	probInit  = 1 << (probBits - 1)
	probMoves = 5 // adaptation rate
	topValue  = 1 << 24
)

// Prob is an adaptive binary probability (context model). The zero value is
// NOT valid; initialize with NewProb or ResetProbs.
type Prob uint16

// NewProb returns a context initialized to probability one half.
func NewProb() Prob { return probInit }

// ResetProbs reinitializes a slice of contexts to one half.
func ResetProbs(ps []Prob) {
	for i := range ps {
		ps[i] = probInit
	}
}

// Encoder is the range-coder encoder. Create with NewEncoder.
type Encoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	buf       []byte
}

// NewEncoder returns an encoder with sizeHint bytes preallocated.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{rng: 0xFFFFFFFF, cacheSize: 1, buf: make([]byte, 0, sizeHint)}
}

// Reset prepares the encoder for a new stream, keeping its buffer.
func (e *Encoder) Reset() {
	e.low = 0
	e.rng = 0xFFFFFFFF
	e.cache = 0
	e.cacheSize = 1
	e.buf = e.buf[:0]
}

func (e *Encoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || (e.low>>32) != 0 {
		temp := e.cache
		carry := byte(e.low >> 32)
		for {
			e.buf = append(e.buf, temp+carry)
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(e.low >> 24)
	}
	e.cacheSize++
	e.low = (e.low & 0x00FFFFFF) << 8
}

// EncodeBit encodes one bit with the adaptive context p.
func (e *Encoder) EncodeBit(p *Prob, bit int) {
	bound := (e.rng >> probBits) * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (1<<probBits - *p) >> probMoves
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> probMoves
	}
	for e.rng < topValue {
		e.rng <<= 8
		e.shiftLow()
	}
}

// EncodeBypass encodes one equiprobable bit without context adaptation.
func (e *Encoder) EncodeBypass(bit int) {
	e.rng >>= 1
	if bit != 0 {
		e.low += uint64(e.rng)
	}
	for e.rng < topValue {
		e.rng <<= 8
		e.shiftLow()
	}
}

// EncodeBypassBits encodes the low n bits of v, MSB first, as bypass bits.
func (e *Encoder) EncodeBypassBits(v uint32, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		e.EncodeBypass(int(v>>uint(i)) & 1)
	}
}

// EncodeUE encodes v with a unary context-coded prefix (contexts from ctx,
// clamped to its last element) followed by a bypass Exp-Golomb suffix once
// the prefix exceeds escape. This is the UEG-style binarization CABAC uses
// for levels and motion vector differences.
func (e *Encoder) EncodeUE(ctx []Prob, escape int, v uint32) {
	i := 0
	for ; i < escape && v > 0; i++ {
		e.EncodeBit(&ctx[min(i, len(ctx)-1)], 1)
		v--
	}
	if i < escape {
		e.EncodeBit(&ctx[min(i, len(ctx)-1)], 0)
		return
	}
	// Escape: bypass Exp-Golomb of the remainder.
	x := uint64(v) + 1
	n := uint(bits.Len64(x))
	for j := uint(0); j < n-1; j++ {
		e.EncodeBypass(0)
	}
	for j := int(n) - 1; j >= 0; j-- {
		e.EncodeBypass(int(x>>uint(j)) & 1)
	}
}

// EncodeSE encodes a signed value as EncodeUE of the magnitude mapping plus
// a bypass sign bit for non-zero values.
func (e *Encoder) EncodeSE(ctx []Prob, escape int, v int32) {
	mag := v
	if mag < 0 {
		mag = -mag
	}
	e.EncodeUE(ctx, escape, uint32(mag))
	if mag != 0 {
		sign := 0
		if v < 0 {
			sign = 1
		}
		e.EncodeBypass(sign)
	}
}

// Finish flushes the encoder and returns the coded bytes. The encoder must
// be Reset before reuse.
func (e *Encoder) Finish() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.buf
}

// Len returns the current number of output bytes (before Finish).
func (e *Encoder) Len() int { return len(e.buf) }

// Decoder is the range-coder decoder. Create with NewDecoder over the bytes
// produced by Encoder.Finish.
//
// Renormalisation shifts bytes out of look, a big-endian word preloaded
// eight bytes at a time, so the per-bin path never indexes buf. Past the
// end of buf the word is zero-filled, and pos-nb — the index behind the
// last byte shifted into code — tells how far. A stream from
// Encoder.Finish ends exactly where its decoder stops reading (encoder
// and decoder renormalise in lockstep, and Finish flushes the four bytes
// the decoder holds in code), so any over-read means a damaged stream:
// Err reports it, with no slack.
type Decoder struct {
	rng  uint32
	code uint32
	look uint64 // preloaded stream bytes, next byte on top
	nb   int    // bytes left in look
	buf  []byte
	pos  int  // next byte of buf to preload; runs past len(buf) at the end
	bad  bool // an escape suffix no encoder writes
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder {
	d := &Decoder{}
	d.Reset(buf)
	return d
}

// Reset re-points the decoder at a new coded buffer, allowing one
// Decoder to serve many payloads without reallocation.
func (d *Decoder) Reset(buf []byte) {
	*d = Decoder{rng: 0xFFFFFFFF, buf: buf, pos: 1} // first byte is always 0
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | d.nextByte()
	}
}

// Err reports bitstream.ErrOverrun once the decoder has consumed bytes
// past the end of its buffer or met a malformed escape suffix: what it
// returned since then is not what an encoder wrote.
func (d *Decoder) Err() error {
	if d.bad || d.pos-d.nb > len(d.buf) {
		return bitstream.ErrOverrun
	}
	return nil
}

// preload refills look: one 8-byte load while eight bytes remain, the
// last bytes one by one, zeros after them.
func (d *Decoder) preload() {
	if d.pos+8 <= len(d.buf) {
		d.look = binary.BigEndian.Uint64(d.buf[d.pos:])
	} else {
		d.look = 0
		for i := d.pos; i < len(d.buf); i++ {
			d.look |= uint64(d.buf[i]) << (56 - 8*uint(i-d.pos))
		}
	}
	d.pos += 8
	d.nb = 8
}

// nextByte takes the next stream byte out of look.
func (d *Decoder) nextByte() uint32 {
	if d.nb == 0 {
		d.preload()
	}
	b := uint32(d.look >> 56)
	d.look <<= 8
	d.nb--
	return b
}

// renorm restores rng >= topValue, a byte at a time. The decode methods
// keep rng and code in locals across the bins of one symbol and pass them
// through here.
func (d *Decoder) renorm(rng, code uint32) (uint32, uint32) {
	for rng < topValue {
		rng <<= 8
		code = code<<8 | d.nextByte()
	}
	return rng, code
}

// contextBin is the arithmetic of one context-coded bin, before
// renormalisation: the mirror of Encoder.EncodeBit on caller-held state.
func contextBin(rng, code uint32, p *Prob) (rng2, code2, bit uint32) {
	pv := uint32(*p)
	bound := (rng >> probBits) * pv
	if code < bound {
		*p = Prob(pv + (1<<probBits-pv)>>probMoves)
		return bound, code, 0
	}
	*p = Prob(pv - pv>>probMoves)
	return rng - bound, code - bound, 1
}

// bypassBin is the arithmetic of one equiprobable bin.
func bypassBin(rng, code uint32) (rng2, code2, bit uint32) {
	rng >>= 1
	if code < rng {
		return rng, code, 0
	}
	return rng, code - rng, 1
}

// DecodeBit decodes one bit with the adaptive context p.
//
//hdvlint:noalloc
func (d *Decoder) DecodeBit(p *Prob) int {
	rng, code, bit := contextBin(d.rng, d.code, p)
	if rng < topValue {
		rng, code = d.renorm(rng, code)
	}
	d.rng, d.code = rng, code
	return int(bit)
}

// DecodeBypass decodes one equiprobable bit.
//
//hdvlint:noalloc
func (d *Decoder) DecodeBypass() int {
	rng, code, bit := bypassBin(d.rng, d.code)
	if rng < topValue {
		rng, code = d.renorm(rng, code)
	}
	d.rng, d.code = rng, code
	return int(bit)
}

// DecodeBypassBits decodes n bypass bits MSB-first, with rng and code in
// registers from the first bin to the last.
//
//hdvlint:noalloc
func (d *Decoder) DecodeBypassBits(n uint) uint32 {
	var v, bit uint32
	rng, code := d.rng, d.code
	for ; n > 0; n-- {
		rng, code, bit = bypassBin(rng, code)
		if rng < topValue {
			rng, code = d.renorm(rng, code)
		}
		v = v<<1 | bit
	}
	d.rng, d.code = rng, code
	return v
}

// DecodeUE mirrors Encoder.EncodeUE. The bins of one symbol — context
// prefix, bypass zero run, bypass value bits — are decoded on locals, so
// the state goes through memory once per symbol instead of once per bin.
//
//hdvlint:noalloc
func (d *Decoder) DecodeUE(ctx []Prob, escape int) uint32 {
	rng, code := d.rng, d.code
	var bit uint32
	v := uint32(0)
	last := len(ctx) - 1
	for i := 0; i < escape; i++ {
		rng, code, bit = contextBin(rng, code, &ctx[min(i, last)])
		if rng < topValue {
			rng, code = d.renorm(rng, code)
		}
		if bit == 0 {
			d.rng, d.code = rng, code
			return v
		}
		v++
	}
	// Escape suffix: bypass Exp-Golomb.
	zeros := uint(0)
	for {
		rng, code, bit = bypassBin(rng, code)
		if rng < topValue {
			rng, code = d.renorm(rng, code)
		}
		if bit != 0 {
			break
		}
		zeros++
		if zeros > 32 {
			d.rng, d.code, d.bad = rng, code, true
			return v
		}
	}
	rest := uint64(0)
	for j := uint(0); j < zeros; j++ {
		rng, code, bit = bypassBin(rng, code)
		if rng < topValue {
			rng, code = d.renorm(rng, code)
		}
		rest = rest<<1 | uint64(bit)
	}
	d.rng, d.code = rng, code
	return v + uint32((1<<zeros|rest)-1)
}

// expGolombSuffix decodes the bypass Exp-Golomb remainder that follows an
// escaped level prefix in DecodeCoeffs, on the caller's rng and code. A
// zero run longer than 32, which no encoder writes, sets bad and yields 0.
// DecodeUE writes the same loops out in place: H.264's I4 modes escape
// often, and this call cost DecodeUE ~5 % a bin on a replayed slice;
// written out in DecodeCoeffs, it measured no faster.
func (d *Decoder) expGolombSuffix(rng, code uint32) (uint32, uint32, uint32) {
	var bit uint32
	zeros := uint(0)
	for {
		rng, code, bit = bypassBin(rng, code)
		if rng < topValue {
			rng, code = d.renorm(rng, code)
		}
		if bit != 0 {
			break
		}
		zeros++
		if zeros > 32 {
			d.bad = true
			return rng, code, 0
		}
	}
	rest := uint64(0)
	for j := uint(0); j < zeros; j++ {
		rng, code, bit = bypassBin(rng, code)
		if rng < topValue {
			rng, code = d.renorm(rng, code)
		}
		rest = rest<<1 | uint64(bit)
	}
	return rng, code, uint32((1<<zeros | rest) - 1)
}

// coeffEscape is the level prefix length after which a coefficient
// magnitude continues in bypass Exp-Golomb (EncodeUE's escape).
const coeffEscape = 4

// DecodeCoeffs decodes one coefficient block: the mirror of h264's
// writeCoeffs, which codes it as
//
//   - a coded-block flag on cbf; a zero flag ends the block;
//   - the significance map: for scan positions 0..n-2, a bin on
//     sig[i] and, after a one, a last flag on last[i] (contexts past the
//     end of sig repeat its final one; last is indexed alike); a
//     significant position with last set ends the map, and a map that
//     runs out makes position n-1 significant;
//   - the levels in reverse scan order, each |v|-1 as EncodeUE on lvl
//     with escape 4 (prefix bins, then the bypass Exp-Golomb suffix), and
//     a bypass sign bin, one for negative.
//
// Scan position i is coefficient scan[i] of coefs, n = len(scan) ≤ 16,
// so a zigzag scan lands the block in raster order. Only the coded
// coefficients are stored: coefs must be zero where scan points. The
// result is the coded-block flag. rng and code stay in locals from the
// flag to the last sign, so the state goes through memory once per block
// instead of once per bin. A damaged stream decodes the same bins as the
// per-bin calls would, and Err reports it.
//
//hdvlint:noalloc
func (d *Decoder) DecodeCoeffs(cbf *Prob, sig, last, lvl []Prob, scan []int, coefs []int32) bool {
	rng, code, bit := contextBin(d.rng, d.code, cbf)
	if rng < topValue {
		rng, code = d.renorm(rng, code)
	}
	if bit == 0 {
		d.rng, d.code = rng, code
		return false
	}
	var pos [16]int // raster index of each significant coefficient
	np := 0
	n := len(scan)
	last = last[:len(sig)]
	i := 0
	for ci := 0; i < n-1; i++ {
		rng, code, bit = contextBin(rng, code, &sig[ci])
		if rng < topValue {
			rng, code = d.renorm(rng, code)
		}
		if bit != 0 {
			pos[np] = scan[i]
			np++
			rng, code, bit = contextBin(rng, code, &last[ci])
			if rng < topValue {
				rng, code = d.renorm(rng, code)
			}
			if bit != 0 {
				break
			}
		}
		if ci < len(sig)-1 {
			ci++
		}
	}
	if i == n-1 {
		pos[np] = scan[n-1]
		np++
	}
	top := len(lvl) - 1
	for j := np - 1; j >= 0; j-- {
		k := 0
		for ; k < coeffEscape; k++ {
			rng, code, bit = contextBin(rng, code, &lvl[min(k, top)])
			if rng < topValue {
				rng, code = d.renorm(rng, code)
			}
			if bit == 0 {
				break
			}
		}
		v := uint32(k)
		if k == coeffEscape {
			var rest uint32
			rng, code, rest = d.expGolombSuffix(rng, code)
			v += rest
		}
		rng, code, bit = bypassBin(rng, code)
		if rng < topValue {
			rng, code = d.renorm(rng, code)
		}
		mag := int32(v) + 1
		if bit != 0 {
			mag = -mag
		}
		coefs[pos[j]] = mag
	}
	d.rng, d.code = rng, code
	return true
}

// DecodeSE mirrors Encoder.EncodeSE.
//
//hdvlint:noalloc
func (d *Decoder) DecodeSE(ctx []Prob, escape int) int32 {
	mag := int32(d.DecodeUE(ctx, escape))
	if mag == 0 {
		return 0
	}
	if d.DecodeBypass() == 1 {
		return -mag
	}
	return mag
}
