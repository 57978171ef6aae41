// Package entropy provides the entropy-coding primitives of the three
// codecs: Exp-Golomb variable-length codes for the MPEG-2/MPEG-4 VLC layers
// and an adaptive binary range coder (the arithmetic-coding engine class
// that gives H.264/CABAC its compression edge).
//
// The Exp-Golomb definition lives in two places only: WriteUE/WriteSE here
// and the fused reads bitstream.Reader.ReadUE/ReadSE that ReadUE/ReadSE
// forward to. The MPEG-2/-4 coefficient syntax — ue(run) then se(level) per
// pair — is read through a joint table (codec.ReadRunLevels) that holds no
// third copy of the code: it is built at package initialisation by running
// those same reads over every 13-bit window and storing what they returned
// and how many bits they took, for the windows in which a whole pair (or a
// whole run, which covers both end-of-block codes) fits. An entry is the
// scalar reads' own answer, so table and scalar path cannot disagree; a
// window the table does not cover falls through to the scalar reads.
// TestRunLevelTable re-derives every entry with different bits behind the
// window, and the reference tests compare whole blocks with the two-call
// parser the table replaced.
package entropy

import (
	"math/bits"

	"hdvideobench/internal/bitstream"
)

// WriteUE writes v as an unsigned Exp-Golomb code: ⌊log2(v+1)⌋ zero bits,
// then the binary representation of v+1.
func WriteUE(w *bitstream.Writer, v uint32) {
	x := uint64(v) + 1
	n := uint(bits.Len64(x))
	w.WriteBits(0, n-1)
	w.WriteBits(x, n)
}

// ReadUE reads an unsigned Exp-Golomb code (see bitstream.Reader.ReadUE).
func ReadUE(r *bitstream.Reader) uint32 { return r.ReadUE() }

// WriteSE writes v as a signed Exp-Golomb code using the H.264 mapping
// (0, 1, -1, 2, -2, ... → 0, 1, 2, 3, 4, ...).
func WriteSE(w *bitstream.Writer, v int32) {
	var u uint32
	if v > 0 {
		u = uint32(2*v - 1)
	} else {
		u = uint32(-2 * v)
	}
	WriteUE(w, u)
}

// SEBits returns the length in bits of WriteSE's code for v: what the
// encoders' motion-vector and mode costs charge for a signed value.
func SEBits(v int) int {
	if v < 0 {
		v = -v
	}
	return 2*bits.Len(uint(2*v+1)) - 1
}

// ReadSE reads a signed Exp-Golomb code.
func ReadSE(r *bitstream.Reader) int32 { return r.ReadSE() }
