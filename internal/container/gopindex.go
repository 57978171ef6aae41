package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// GOP index record. A coded HDVB stream made of closed GOPs is seekable
// at GOP granularity: every GOP opens with an I packet and nothing
// references across the boundary, so a decoder handed the stream header
// plus any GOP-aligned byte suffix can decode from there. The index
// records where those boundaries sit in the byte stream. It is written
// as a trailer *behind* the container bytes (the disk-cache layout in
// internal/gopcache): the stream itself stays byte-identical to an
// unindexed one, and a reader that has random access finds the record
// from the file's tail.
//
// Record layout (little-endian):
//
//	"HDVX" | u8 version | u32 count | count × (u64 offset, u32 frame) |
//	u64 size | u32 recordLen | "HDVX"
//
// The trailing (recordLen, magic) pair is the footer: a reader seeks to
// the last 8 bytes, validates the magic, and steps back recordLen bytes
// to the record's start. size is the byte length of the container
// stream the offsets index into — for a cache entry file, everything
// before the record.

// GOPTracker finds the closed GOPs of a coding-order packet stream as it
// goes by: a GOP opens at an I packet that displays after every earlier
// packet. No reference crosses that boundary, so decoding can start
// there. An I packet that displays before some earlier packet opens
// nothing. The zero value is ready to use.
type GOPTracker struct {
	end int // 1 + the highest display index seen
}

// Opens reports whether p opens a closed GOP, and notes p as seen.
func (t *GOPTracker) Opens(p Packet) bool {
	opens := p.Type == FrameI && p.DisplayIndex >= t.end
	t.end = max(t.end, p.DisplayIndex+1)
	return opens
}

// GOPIndexEntry locates one closed GOP inside a coded stream.
type GOPIndexEntry struct {
	Offset int64 // byte offset of the GOP's first packet header
	Frame  int   // display index of the GOP's first (I) frame
}

// GOPIndex locates every closed GOP of a coded stream.
type GOPIndex struct {
	Size    int64 // container byte length the offsets index into
	Entries []GOPIndexEntry
}

// ErrNoGOPIndex reports that a file or buffer carries no GOP index
// trailer.
var ErrNoGOPIndex = errors.New("container: no GOP index trailer")

const (
	gopIndexMagic   = "HDVX"
	gopIndexVersion = 1
	// gopIndexFixed is the record length excluding the per-entry part:
	// magic(4) + version(1) + count(4) + size(8) + recordLen(4) + magic(4).
	gopIndexFixed = 25
	gopEntrySize  = 12
	// MaxGOPEntries bounds index parsing the way the packet reader bounds
	// payload sizes: far beyond any real stream, small enough that a
	// corrupt count cannot demand an absurd allocation.
	MaxGOPEntries = 1 << 22
)

// GOPIndexRecordSize returns the encoded byte length of an index with n
// entries.
func GOPIndexRecordSize(n int) int { return gopIndexFixed + n*gopEntrySize }

// AppendGOPIndex appends the encoded index record (including its footer)
// to dst.
func AppendGOPIndex(dst []byte, idx GOPIndex) []byte {
	dst = append(dst, gopIndexMagic...)
	dst = append(dst, gopIndexVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(idx.Entries)))
	for _, e := range idx.Entries {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Offset))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Frame))
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(idx.Size))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(GOPIndexRecordSize(len(idx.Entries))))
	return append(dst, gopIndexMagic...)
}

// WriteGOPIndex writes the encoded index record to w.
func WriteGOPIndex(w io.Writer, idx GOPIndex) (int, error) {
	return w.Write(AppendGOPIndex(make([]byte, 0, GOPIndexRecordSize(len(idx.Entries))), idx))
}

// ReadGOPIndexTrailer reads a GOP index record from the tail of a
// fileSize-byte random-access file (a cache entry: container bytes
// followed by the record). It validates the footer, the declared sizes
// against fileSize, and that the offsets form a strictly increasing
// in-bounds sequence. A file with no (or an unrecognizable) footer
// reports ErrNoGOPIndex.
func ReadGOPIndexTrailer(r io.ReaderAt, fileSize int64) (GOPIndex, error) {
	var foot [8]byte
	if fileSize < gopIndexFixed {
		return GOPIndex{}, ErrNoGOPIndex
	}
	if _, err := r.ReadAt(foot[:], fileSize-8); err != nil {
		return GOPIndex{}, fmt.Errorf("container: reading GOP index footer: %w", err)
	}
	if string(foot[4:]) != gopIndexMagic {
		return GOPIndex{}, ErrNoGOPIndex
	}
	recLen := int64(binary.LittleEndian.Uint32(foot[:4]))
	if recLen < gopIndexFixed || recLen > fileSize || (recLen-gopIndexFixed)%gopEntrySize != 0 {
		return GOPIndex{}, fmt.Errorf("container: GOP index record length %d invalid for %d-byte file", recLen, fileSize)
	}
	buf := make([]byte, recLen)
	if _, err := r.ReadAt(buf, fileSize-recLen); err != nil {
		return GOPIndex{}, fmt.Errorf("container: reading GOP index record: %w", err)
	}
	if string(buf[:4]) != gopIndexMagic {
		return GOPIndex{}, fmt.Errorf("container: GOP index record magic mismatch")
	}
	if buf[4] != gopIndexVersion {
		return GOPIndex{}, fmt.Errorf("container: GOP index version %d unsupported", buf[4])
	}
	count := int64(binary.LittleEndian.Uint32(buf[5:]))
	if count > MaxGOPEntries || GOPIndexRecordSize(int(count)) != int(recLen) {
		return GOPIndex{}, fmt.Errorf("container: GOP index count %d inconsistent with record length %d", count, recLen)
	}
	idx := GOPIndex{Entries: make([]GOPIndexEntry, count)}
	p := int64(9)
	for i := range idx.Entries {
		idx.Entries[i].Offset = int64(binary.LittleEndian.Uint64(buf[p:]))
		idx.Entries[i].Frame = int(binary.LittleEndian.Uint32(buf[p+8:]))
		p += gopEntrySize
	}
	idx.Size = int64(binary.LittleEndian.Uint64(buf[p:]))
	if idx.Size != fileSize-recLen {
		return GOPIndex{}, fmt.Errorf("container: GOP index declares %d container bytes, file holds %d", idx.Size, fileSize-recLen)
	}
	prev := int64(-1)
	for i, e := range idx.Entries {
		if e.Offset <= prev || e.Offset >= idx.Size {
			return GOPIndex{}, fmt.Errorf("container: GOP index entry %d offset %d out of order or out of bounds", i, e.Offset)
		}
		prev = e.Offset
	}
	return idx, nil
}
