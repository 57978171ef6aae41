package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestGOPIndexRoundTrip encodes an index behind fake container bytes and
// reads it back through the trailer path.
func TestGOPIndexRoundTrip(t *testing.T) {
	body := bytes.Repeat([]byte{0xAB}, 1000)
	idx := GOPIndex{
		Size: int64(len(body)),
		Entries: []GOPIndexEntry{
			{Offset: 20, Frame: 0},
			{Offset: 333, Frame: 8},
			{Offset: 804, Frame: 16},
		},
	}
	file := AppendGOPIndex(append([]byte(nil), body...), idx)
	if want := len(body) + GOPIndexRecordSize(len(idx.Entries)); len(file) != want {
		t.Fatalf("file length %d, want %d", len(file), want)
	}

	got, err := ReadGOPIndexTrailer(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != idx.Size || len(got.Entries) != len(idx.Entries) {
		t.Fatalf("got %+v, want %+v", got, idx)
	}
	for i := range idx.Entries {
		if got.Entries[i] != idx.Entries[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, got.Entries[i], idx.Entries[i])
		}
	}
}

// TestGOPIndexEmptyEntries: a zero-GOP index (degenerate but legal)
// still round-trips.
func TestGOPIndexEmptyEntries(t *testing.T) {
	file := AppendGOPIndex([]byte("body"), GOPIndex{Size: 4})
	got, err := ReadGOPIndexTrailer(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 4 || len(got.Entries) != 0 {
		t.Fatalf("got %+v", got)
	}
}

// TestGOPIndexMissing: files without the footer magic report
// ErrNoGOPIndex, not a parse error.
func TestGOPIndexMissing(t *testing.T) {
	for _, b := range [][]byte{
		nil,
		[]byte("short"),
		bytes.Repeat([]byte{0}, 100),
	} {
		if _, err := ReadGOPIndexTrailer(bytes.NewReader(b), int64(len(b))); !errors.Is(err, ErrNoGOPIndex) {
			t.Fatalf("%d-byte junk: err = %v, want ErrNoGOPIndex", len(b), err)
		}
	}
}

// TestGOPIndexCorrupt: structurally damaged trailers fail with a real
// error instead of returning garbage offsets.
func TestGOPIndexCorrupt(t *testing.T) {
	body := bytes.Repeat([]byte{1}, 200)
	idx := GOPIndex{Size: 200, Entries: []GOPIndexEntry{{Offset: 20, Frame: 0}, {Offset: 90, Frame: 4}}}
	clean := AppendGOPIndex(append([]byte(nil), body...), idx)

	corrupt := func(name string, mutate func(b []byte)) {
		t.Helper()
		b := append([]byte(nil), clean...)
		mutate(b)
		if _, err := ReadGOPIndexTrailer(bytes.NewReader(b), int64(len(b))); err == nil {
			t.Fatalf("%s: corrupt trailer parsed cleanly", name)
		}
	}
	recStart := len(body)
	corrupt("record length too small", func(b []byte) {
		binary.LittleEndian.PutUint32(b[len(b)-8:], 4)
	})
	corrupt("record length past file", func(b []byte) {
		binary.LittleEndian.PutUint32(b[len(b)-8:], uint32(len(b)+1))
	})
	corrupt("bad version", func(b []byte) { b[recStart+4] = 99 })
	corrupt("count inconsistent", func(b []byte) {
		binary.LittleEndian.PutUint32(b[recStart+5:], 7)
	})
	corrupt("offsets out of order", func(b []byte) {
		binary.LittleEndian.PutUint64(b[recStart+9:], 95) // first offset > second
	})
	corrupt("offset out of bounds", func(b []byte) {
		binary.LittleEndian.PutUint64(b[recStart+9+12:], 1000)
	})
	corrupt("size mismatch", func(b []byte) {
		binary.LittleEndian.PutUint64(b[recStart+9+24:], 150)
	})
}

// TestGOPTracker drives the closed-GOP rule over coding-order packets:
// the zero value opens at the first I packet, B packets that display
// before the I coded ahead of them do not undo its opening, and an I
// packet that an earlier packet displays after opens nothing.
func TestGOPTracker(t *testing.T) {
	cases := []struct {
		name string
		pkts string // packet types in coding order
		disp []int  // their display indexes
		want []bool
	}{
		{"zero value", "I", []int{0}, []bool{true}},
		{"closed IPBB GOPs", "IPBBIPBB", []int{0, 3, 1, 2, 4, 7, 5, 6}, []bool{true, false, false, false, true, false, false, false}},
		{"B packets coded after an I, displaying before it", "IPIBB", []int{0, 3, 6, 4, 5}, []bool{true, false, true, false, false}},
		{"I displaying before an earlier packet", "IPIB", []int{0, 3, 2, 1}, []bool{true, false, false, false}},
		{"stream opening on a P", "PI", []int{0, 1}, []bool{false, true}},
	}
	for _, tc := range cases {
		var tr GOPTracker
		for i, typ := range tc.pkts {
			p := Packet{Type: FrameType(typ), DisplayIndex: tc.disp[i]}
			if got := tr.Opens(p); got != tc.want[i] {
				t.Errorf("%s: packet %d (%c, display %d): Opens = %v, want %v", tc.name, i, typ, p.DisplayIndex, got, tc.want[i])
			}
		}
	}
}
