package codec

import (
	"encoding/binary"
	"fmt"
)

// Slice-level (macroblock-row) parallelism support. A frame is split into
// contiguous bands of macroblock rows; each band is coded with fully
// independent prediction state (DC predictors, MV predictors and entropy
// coder state reset at the band's top row, intra prediction and MV
// candidates clamped so they never read above it), so the bands can be
// encoded and decoded concurrently — the route x264's sliced-threads mode
// takes, and the only parallelism that works at the paper's
// first-frame-only-intra setting where GOP chunking degenerates to a
// single segment.
//
// Each frame packet's payload carries a slice table: a slice count
// followed by one (row, rows, size) record per slice, then the
// concatenated slice bitstreams. The table is what lets a decoder hand
// every slice to its own worker before parsing a single macroblock.

// MaxSlices is the largest slice count the table format can carry (and
// far more than any frame height provides rows for).
const MaxSlices = 255

// SliceSpan describes one slice: a contiguous band of macroblock rows
// and, once coded or parsed, the byte length of its bitstream.
type SliceSpan struct {
	Row  int // first macroblock row
	Rows int // number of macroblock rows
	Size int // coded byte length (0 until coded/parsed)
}

// EffectiveSlices clamps a configured slice count to what a frame of
// mbRows macroblock rows supports: at least 1, at most min(mbRows,
// MaxSlices).
func EffectiveSlices(n, mbRows int) int {
	if n < 1 {
		n = 1
	}
	if n > mbRows {
		n = mbRows
	}
	if n > MaxSlices {
		n = MaxSlices
	}
	return n
}

// SliceRows splits mbRows macroblock rows into EffectiveSlices(n, mbRows)
// contiguous near-equal bands (the first mbRows%n bands get the extra
// row), matching x264's sliced-threads row partitioning.
func SliceRows(mbRows, n int) []SliceSpan {
	n = EffectiveSlices(n, mbRows)
	spans := make([]SliceSpan, n)
	base, extra := mbRows/n, mbRows%n
	row := 0
	for i := range spans {
		rows := base
		if i < extra {
			rows++
		}
		spans[i] = SliceSpan{Row: row, Rows: rows}
		row += rows
	}
	return spans
}

// sliceRecSize is the per-slice byte length of a table record:
// u16 row | u16 rows | u32 size, little-endian.
const sliceRecSize = 8

// SliceTableSize returns the encoded byte length of a table for n slices.
func SliceTableSize(n int) int { return 1 + n*sliceRecSize }

// AppendSliceTable appends the slice table (u8 count, then per-slice
// records) to dst. Every span's Size must already be filled in.
func AppendSliceTable(dst []byte, spans []SliceSpan) []byte {
	dst = append(dst, byte(len(spans)))
	for _, s := range spans {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(s.Row))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(s.Rows))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Size))
	}
	return dst
}

// ParseSliceTable reads and validates the slice table at the start of
// buf for a frame of mbRows macroblock rows. The spans must tile
// [0, mbRows) contiguously and their sizes must sum to exactly the bytes
// that follow the table, so a malformed count, row range or length fails
// here with a clean error instead of a panic or an unbounded read inside
// a slice decoder. It returns the spans and the offset of the first
// slice body; slice i's bitstream is buf[off : off+spans[i].Size] with
// off advanced by each earlier slice's size.
func ParseSliceTable(buf []byte, mbRows int) ([]SliceSpan, int, error) {
	if mbRows < 1 {
		return nil, 0, fmt.Errorf("codec: slice table: invalid frame height (%d macroblock rows)", mbRows)
	}
	if len(buf) < 1 {
		return nil, 0, fmt.Errorf("codec: slice table: missing slice count")
	}
	n := int(buf[0])
	if n < 1 || n > mbRows {
		return nil, 0, fmt.Errorf("codec: slice table: %d slices for %d macroblock rows", n, mbRows)
	}
	off := SliceTableSize(n)
	if len(buf) < off {
		return nil, 0, fmt.Errorf("codec: slice table: truncated (%d bytes, need %d)", len(buf), off)
	}
	body := len(buf) - off
	spans := make([]SliceSpan, n)
	row, total := 0, 0
	for i := range spans {
		rec := buf[1+i*sliceRecSize:]
		s := SliceSpan{
			Row:  int(binary.LittleEndian.Uint16(rec)),
			Rows: int(binary.LittleEndian.Uint16(rec[2:])),
			Size: int(binary.LittleEndian.Uint32(rec[4:])),
		}
		if s.Row != row || s.Rows < 1 || s.Row+s.Rows > mbRows {
			return nil, 0, fmt.Errorf("codec: slice table: slice %d covers rows [%d,%d) of %d (expected to start at %d)",
				i, s.Row, s.Row+s.Rows, mbRows, row)
		}
		if s.Size > body-total {
			return nil, 0, fmt.Errorf("codec: slice table: slice %d claims %d bytes, only %d remain",
				i, s.Size, body-total)
		}
		row += s.Rows
		total += s.Size
		spans[i] = s
	}
	if row != mbRows {
		return nil, 0, fmt.Errorf("codec: slice table: slices cover %d of %d macroblock rows", row, mbRows)
	}
	if total != body {
		return nil, 0, fmt.Errorf("codec: slice table: slice sizes sum to %d, payload has %d", total, body)
	}
	return spans, off, nil
}

// SliceRunner executes n independent slice jobs, possibly concurrently.
// Implementations must invoke job(i) exactly once for every i in [0, n)
// and must not return before all jobs have completed. Jobs touch
// disjoint state (separate bitstreams, disjoint frame rows), so any
// interleaving is safe and the merged output is identical for every
// schedule.
type SliceRunner func(n int, job func(i int))

// runSlices invokes r; a nil r is the serial default, the jobs in order
// on the calling goroutine.
func runSlices(r SliceRunner, n int, job func(i int)) {
	if r != nil {
		r(n, job)
		return
	}
	for i := 0; i < n; i++ {
		job(i)
	}
}
