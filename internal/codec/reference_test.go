package codec

import (
	"fmt"
	"math/rand"
	"testing"

	"hdvideobench/internal/bitstream"
	"hdvideobench/internal/dct"
	"hdvideobench/internal/entropy"
)

// refReadRunLevels is the run/level parser the MPEG-2 and MPEG-4 decoders
// each carried before the joint table: two Exp-Golomb reads per pair, each
// with its own refill, and an error poll between them. Kept verbatim as
// the specification ReadRunLevels is tested against.
func refReadRunLevels(br *bitstream.Reader, blk *[64]int32, start int, eob uint32) error {
	pos := start
	for {
		run := entropy.ReadUE(br)
		if run == eob {
			return nil
		}
		if br.Err() != nil {
			return fmt.Errorf("truncated block: %w", br.Err())
		}
		pos += int(run)
		if pos > 63 {
			return fmt.Errorf("run overflows block (pos %d)", pos)
		}
		level := entropy.ReadSE(br)
		if level == 0 {
			return fmt.Errorf("zero level")
		}
		blk[dct.Zigzag8[pos]] = level
		pos++
		if pos > 64 {
			return fmt.Errorf("block overflow")
		}
	}
}

// compareRunLevels parses one block from buf with both parsers. They must
// fail together; when they succeed the coefficients and the bits consumed
// must be equal. (A failed block leaves the slice failed; what the two
// parsers consumed or stored before giving up is not compared.)
func compareRunLevels(t *testing.T, buf []byte, skip uint, start int, eob uint32) {
	t.Helper()
	var ref, got bitstream.Reader
	ref.Reset(buf)
	got.Reset(buf)
	ref.SkipBits(skip)
	got.SkipBits(skip)
	var want, have [64]int32
	errRef := refReadRunLevels(&ref, &want, start, eob)
	errGot := ReadRunLevels(&got, &have, start, eob)
	// The reference returns nil on a marker it read out of the zero padding
	// past the end and leaves the error in the reader for the slice loop.
	refFailed := errRef != nil || ref.Err() != nil
	if refFailed != (errGot != nil) {
		t.Fatalf("% x skip %d start %d eob %d: error %v, reference %v (reader: %v)", buf, skip, start, eob, errGot, errRef, ref.Err())
	}
	if errGot != nil {
		return
	}
	if have != want || got.BitsRemaining() != ref.BitsRemaining() {
		t.Fatalf("% x skip %d start %d eob %d:\n%v leaving %d bits, reference\n%v leaving %d",
			buf, skip, start, eob, have, got.BitsRemaining(), want, ref.BitsRemaining())
	}
}

// TestReferenceRunLevelPrefixes parses a block from every 16-bit prefix
// followed by every tail length 0-9 bytes, for both block kinds.
func TestReferenceRunLevelPrefixes(t *testing.T) {
	tails := [][]byte{
		{0x5a, 0x00, 0x13, 0xc0, 0x00, 0x81, 0x00, 0x40, 0x00}, // more pairs, then a marker region
		{0x02, 0x00, 0x04, 0x10, 0x00, 0x00, 0x00, 0x01, 0xff}, // ue(63) at the front, long codes behind
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // run 0, invalid level 0
	}
	buf := make([]byte, 0, 16)
	for prefix := 0; prefix < 1<<16; prefix++ {
		for _, tail := range tails {
			for tl := 0; tl <= len(tail); tl++ {
				buf = append(buf[:0], byte(prefix>>8), byte(prefix))
				buf = append(buf, tail[:tl]...)
				compareRunLevels(t, buf, uint(prefix%3), 1, 63)
				compareRunLevels(t, buf, uint(prefix%5), 0, 64)
			}
		}
	}
}

// TestReferenceRunLevelStreams writes random blocks with WriteRunLevels,
// checks both parsers return them, then damages the stream — truncation
// and single-bit flips — and checks the parsers still agree block by block.
func TestReferenceRunLevelStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 300; trial++ {
		start, eob := trial%2, uint32(64-trial%2)
		var blocks [][64]int32
		bw := bitstream.NewWriter(1024)
		for b := 0; b < 40; b++ {
			var blk [64]int32
			density := rng.Intn(64)
			for i := start; i < 64; i++ {
				if rng.Intn(64) < density {
					mag := int32(1 + rng.Intn(3))
					if rng.Intn(6) == 0 { // levels past the table window
						mag = int32(1 + rng.Intn(2000))
					}
					if rng.Intn(2) == 0 {
						mag = -mag
					}
					blk[dct.Zigzag8[i]] = mag
				}
			}
			blocks = append(blocks, blk)
			WriteRunLevels(bw, &blk, start, eob)
		}
		stream := append([]byte(nil), bw.Bytes()...)

		var br bitstream.Reader
		br.Reset(stream)
		for b, want := range blocks {
			var have [64]int32
			if err := ReadRunLevels(&br, &have, start, eob); err != nil || have != want {
				t.Fatalf("trial %d block %d: round trip failed: %v", trial, b, err)
			}
		}

		damaged := append([]byte(nil), stream...)
		switch trial % 3 {
		case 1:
			damaged = damaged[:rng.Intn(len(damaged))]
		case 2:
			damaged[rng.Intn(len(damaged))] ^= 1 << uint(rng.Intn(8))
		}
		var ref, got bitstream.Reader
		ref.Reset(damaged)
		got.Reset(damaged)
		for b := range blocks {
			var want, have [64]int32
			errRef := refReadRunLevels(&ref, &want, start, eob)
			errGot := ReadRunLevels(&got, &have, start, eob)
			if (errRef != nil || ref.Err() != nil) != (errGot != nil) {
				t.Fatalf("trial %d block %d: error %v, reference %v", trial, b, errGot, errRef)
			}
			if errGot != nil {
				break
			}
			if have != want || got.BitsRemaining() != ref.BitsRemaining() {
				t.Fatalf("trial %d block %d differs from the reference", trial, b)
			}
		}
	}
}

// TestRunLevelTable checks every table entry against the scalar reads on
// a window padded with ones instead of the builder's zeros: what an entry
// claims must not depend on the bits behind the window, and whatever the
// table leaves to the fallback must really not fit.
func TestRunLevelTable(t *testing.T) {
	pairs, runs := 0, 0
	for w, e := range runLevelTable {
		buf := []byte{byte(w >> (runLevelBits - 8)), byte(w<<(16-runLevelBits)) | (1<<(16-runLevelBits) - 1), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
		var br bitstream.Reader
		br.Reset(buf)
		run := br.ReadUE()
		runBits := len(buf)*8 - br.BitsRemaining()
		level := br.ReadSE()
		pairBits := len(buf)*8 - br.BitsRemaining()
		switch {
		case e.level != 0:
			pairs++
			if uint32(e.run) != run || int32(e.level) != level || int(e.size) != pairBits {
				t.Fatalf("window %013b: table (%d, %d, %d bits), scalar (%d, %d, %d bits)", w, e.run, e.level, e.size, run, level, pairBits)
			}
		case e.size != 0:
			runs++
			if uint32(e.run) != run || int(e.size) != runBits {
				t.Fatalf("window %013b: table run %d in %d bits, scalar %d in %d", w, e.run, e.size, run, runBits)
			}
			if pairBits <= runLevelBits && level != 0 {
				t.Fatalf("window %013b: pair (%d, %d) fits in %d bits but the table has the run only", w, run, level, pairBits)
			}
		default:
			if runBits <= runLevelBits {
				t.Fatalf("window %013b: run %d fits in %d bits but the table has no entry", w, run, runBits)
			}
		}
	}
	for _, eob := range []uint32{63, 64} {
		bw := bitstream.NewWriter(4)
		entropy.WriteUE(bw, eob)
		if bw.BitsWritten() != runLevelBits {
			t.Fatalf("ue(%d) is %d bits, the table window %d", eob, bw.BitsWritten(), runLevelBits)
		}
		w := int(bw.Bytes()[0])<<8 | int(bw.Bytes()[1])
		if e := runLevelTable[w>>(16-runLevelBits)]; uint32(e.run) != eob || e.size != runLevelBits || e.level != 0 {
			t.Fatalf("end-of-block %d is not a table hit: %+v", eob, e)
		}
	}
	t.Logf("%d pair entries, %d run-only entries of %d", pairs, runs, len(runLevelTable))
}
