package codec

import (
	"errors"
	"fmt"

	"hdvideobench/internal/bitstream"
	"hdvideobench/internal/dct"
	"hdvideobench/internal/entropy"
)

// Run/level coefficient coding, shared by the MPEG-2 and MPEG-4 codecs: a
// block is a sequence of (zero run, non-zero level) pairs in zigzag order,
// each pair ue(run) followed by se(level), closed by ue(eob) with an eob
// value no run can take.

// WriteRunLevels codes the zigzag run/level pairs of blk from scan
// position start, terminated by the eob marker.
func WriteRunLevels(bw *bitstream.Writer, blk *[64]int32, start int, eob uint32) {
	run := uint32(0)
	for i := start; i < 64; i++ {
		v := blk[dct.Zigzag8[i]]
		if v == 0 {
			run++
			continue
		}
		entropy.WriteUE(bw, run)
		entropy.WriteSE(bw, v)
		run = 0
	}
	entropy.WriteUE(bw, eob)
}

// runLevelBits is the window the joint table is indexed by: the length of
// the end-of-block codes ue(63) and ue(64), so that every block's last
// symbol is a table hit.
const runLevelBits = 13

// runLevel is what the next runLevelBits bits of a stream start with.
// size is the number of bits the entry covers: ue(run) and se(level)
// together when level != 0, ue(run) alone when level == 0 (the level code
// reaches past the window, or run is an end-of-block value), and 0 when
// not even ue(run) ends inside the window.
type runLevel struct {
	run, size uint8
	level     int16
}

// runLevelTable is filled once, at package initialisation, by running the
// scalar reads — Reader.ReadUE, then Reader.ReadSE — over every possible
// window and recording what they returned and how many bits they took,
// whenever that is no more than the window. An entry therefore cannot
// disagree with the two-call read it replaces: it is that read's result.
// A code's length is fixed by the position of its first one bit, so the
// zero bits the builder pads the window with never change an entry, they
// only push codes that do not fit past the window's end.
var runLevelTable = func() (t [1 << runLevelBits]runLevel) {
	var buf [8]byte
	var br bitstream.Reader
	for w := range t {
		buf[0], buf[1] = byte(w>>(runLevelBits-8)), byte(w<<(16-runLevelBits))
		br.Reset(buf[:])
		run := br.ReadUE()
		used := len(buf)*8 - br.BitsRemaining()
		if br.Err() != nil || used > runLevelBits {
			continue
		}
		t[w] = runLevel{run: uint8(run), size: uint8(used)}
		level := br.ReadSE()
		used = len(buf)*8 - br.BitsRemaining()
		if br.Err() == nil && used <= runLevelBits && level != 0 {
			t[w] = runLevel{run: uint8(run), size: uint8(used), level: int16(level)}
		}
	}
	return t
}()

var (
	errZeroLevel   = errors.New("zero level")
	errRunOverflow = errors.New("run overflows block")
)

// ReadRunLevels parses run/level pairs into blk (in zigzag order, from
// scan position start) until the eob marker. One table lookup on the next
// runLevelBits bits decodes a whole pair, or the run alone (which covers
// the marker); codes longer than the window fall back to the scalar reads.
//
//hdvlint:noalloc
func ReadRunLevels(br *bitstream.Reader, blk *[64]int32, start int, eob uint32) error {
	pos := start
	for {
		e := runLevelTable[br.PeekBits(runLevelBits)]
		run, level := uint32(e.run), int32(e.level)
		if e.size != 0 {
			br.SkipBits(uint(e.size) & 15) // size <= runLevelBits; the mask lets the shift compile bare
		} else {
			run = br.ReadUE()
		}
		if level == 0 {
			if run == eob {
				return truncatedOr(br, nil) // an error only if the marker came out of the padding past the end
			}
			level = br.ReadSE()
		}
		// No error poll per pair: after an overrun every read returns 0,
		// and a level of 0 is an error of its own.
		if level == 0 {
			return truncatedOr(br, errZeroLevel)
		}
		pos += int(run)
		if pos > 63 {
			return truncatedOr(br, errRunOverflow)
		}
		blk[dct.Zigzag8[pos]] = level
		pos++
	}
}

// truncatedOr names the reader's error when it has one — the damage that
// produced the bad symbol — and the symbol's own error otherwise.
func truncatedOr(br *bitstream.Reader, err error) error {
	if br.Err() != nil {
		return fmt.Errorf("truncated block: %w", br.Err())
	}
	return err
}
