package gopcache

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"hdvideobench/internal/container"
)

func testKey(i int) Key {
	return Key{Codec: "H.264", Seq: "blue_sky", Width: 96, Height: 80,
		Frames: 8 + i, Q: 5, GOP: 4, Slices: 1}
}

// fillEntry commits an entry of n body bytes with a two-GOP index.
func fillEntry(t *testing.T, c *Cache, key Key, n int) []byte {
	t.Helper()
	body := bytes.Repeat([]byte{byte(n)}, n)
	f, err := c.NewFill(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(body); err != nil {
		t.Fatal(err)
	}
	ent, err := f.Commit(container.GOPIndex{
		Size:    int64(n),
		Entries: []container.GOPIndexEntry{{Offset: 20, Frame: 0}, {Offset: int64(n / 2), Frame: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ent.Close()
	return body
}

// TestFillGetRoundTrip: a committed entry serves back the exact body
// bytes and index, and the hit/miss counters track lookups (not the
// fill's own Commit).
func TestFillGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(0)
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	body := fillEntry(t, c, key, 300)

	ent, ok := c.Get(key)
	if !ok {
		t.Fatal("committed entry missed")
	}
	defer ent.Close()
	if ent.Size() != int64(len(body)) {
		t.Fatalf("entry size %d, want %d", ent.Size(), len(body))
	}
	got, err := io.ReadAll(ent.Body())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("served body differs from filled bytes")
	}
	if len(ent.Index.Entries) != 2 || ent.Index.Entries[1].Frame != 4 {
		t.Fatalf("index lost in round trip: %+v", ent.Index)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

// TestCommitSizeMismatchRejected: a fill whose index disagrees with the
// bytes written must not become a servable entry.
func TestCommitSizeMismatchRejected(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.NewFill(testKey(0))
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "short")
	if _, err := f.Commit(container.GOPIndex{Size: 999}); err == nil {
		t.Fatal("mismatched Commit succeeded")
	}
	if _, ok := c.Get(testKey(0)); ok {
		t.Fatal("rejected fill became servable")
	}
}

// TestFillWriteFailureSticks: once a fill's write fails (here its file
// is closed underneath it), later writes return that error without
// writing, Commit refuses the fill, and neither an entry nor the fill's
// temp file remains; Written counts only the bytes accepted before.
func TestFillWriteFailureSticks(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.NewFill(testKey(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(f, "HDVB head"); err != nil {
		t.Fatal(err)
	}
	f.f.Close()
	_, first := f.Write([]byte("lost"))
	if first == nil {
		t.Fatal("write to a closed fill succeeded")
	}
	if n, err := f.Write([]byte("more")); n != 0 || err != first {
		t.Fatalf("write after the failure = (%d, %v), want (0, %v)", n, err, first)
	}
	if f.Err() != first {
		t.Fatalf("Err() = %v, want %v", f.Err(), first)
	}
	if got := f.Written(); got != int64(len("HDVB head")) {
		t.Fatalf("Written() = %d, want %d", got, len("HDVB head"))
	}
	if _, err := f.Commit(container.GOPIndex{Size: f.Written()}); !errors.Is(err, first) {
		t.Fatalf("Commit of a failed fill = %v, want it to wrap %v", err, first)
	}
	if _, ok := c.Get(testKey(0)); ok {
		t.Fatal("failed fill became servable")
	}
	left, err := filepath.Glob(filepath.Join(dir, "fill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestEvictionRespectsBudget: admitting past the byte budget evicts the
// least-recently-used entries, and total bytes settle under the budget.
func TestEvictionRespectsBudget(t *testing.T) {
	const bodyN = 1000
	fileN := int64(bodyN + container.GOPIndexRecordSize(2))
	c, err := Open(t.TempDir(), 2*fileN) // room for two entries
	if err != nil {
		t.Fatal(err)
	}
	fillEntry(t, c, testKey(0), bodyN)
	fillEntry(t, c, testKey(1), bodyN)
	fillEntry(t, c, testKey(2), bodyN)

	if _, ok := c.Get(testKey(0)); ok {
		t.Fatal("oldest entry survived over-budget admission")
	}
	for i := 1; i <= 2; i++ {
		ent, ok := c.Get(testKey(i))
		if !ok {
			t.Fatalf("entry %d evicted though inside budget", i)
		}
		ent.Close()
	}
	s := c.Stats()
	if s.Bytes > s.Budget {
		t.Fatalf("cache holds %d bytes over budget %d", s.Bytes, s.Budget)
	}
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

// TestGetBumpsLRU: touching an entry must protect it from the next
// eviction round.
func TestGetBumpsLRU(t *testing.T) {
	const bodyN = 1000
	fileN := int64(bodyN + container.GOPIndexRecordSize(2))
	c, err := Open(t.TempDir(), 2*fileN)
	if err != nil {
		t.Fatal(err)
	}
	fillEntry(t, c, testKey(0), bodyN)
	fillEntry(t, c, testKey(1), bodyN)
	if ent, ok := c.Get(testKey(0)); ok { // 0 is now the most recent
		ent.Close()
	} else {
		t.Fatal("warming Get missed")
	}
	fillEntry(t, c, testKey(2), bodyN) // must push out 1, not 0

	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("LRU victim survived")
	}
	ent, ok := c.Get(testKey(0))
	if !ok {
		t.Fatal("recently used entry was evicted")
	}
	ent.Close()
}

// TestOversizedEntryStillCaches: one entry larger than the whole budget
// is admitted (budget soft by one) rather than thrashing.
func TestOversizedEntryStillCaches(t *testing.T) {
	c, err := Open(t.TempDir(), 100)
	if err != nil {
		t.Fatal(err)
	}
	fillEntry(t, c, testKey(0), 5000)
	ent, ok := c.Get(testKey(0))
	if !ok {
		t.Fatal("oversized entry not admitted")
	}
	ent.Close()
}

// TestReopenRecoversEntries: a fresh Open over an existing directory
// re-adopts committed entries (restart durability) and sweeps temp
// files from interrupted fills.
func TestReopenRecoversEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := fillEntry(t, c, testKey(0), 400)
	// An interrupted fill leaves a temp file behind.
	if _, err := c.NewFill(testKey(1)); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ent, ok := c2.Get(testKey(0))
	if !ok {
		t.Fatal("entry lost across reopen")
	}
	defer ent.Close()
	got, err := io.ReadAll(ent.Body())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("reopened entry serves different bytes")
	}
	if s := c2.Stats(); s.Entries != 1 {
		t.Fatalf("reopened cache has %d entries, want 1 (temp files must not be adopted)", s.Entries)
	}
}

// TestKeyIdentity: ids are stable for equal keys and distinct across
// every field that shapes the bitstream.
func TestKeyIdentity(t *testing.T) {
	base := testKey(0)
	if base.id() != testKey(0).id() {
		t.Fatal("equal keys hash differently")
	}
	variants := []Key{}
	for i, mutate := range []func(*Key){
		func(k *Key) { k.Codec = "MPEG-2" },
		func(k *Key) { k.Seq = "riverbed" },
		func(k *Key) { k.Width = 112 },
		func(k *Key) { k.Height = 96 },
		func(k *Key) { k.Frames++ },
		func(k *Key) { k.Q++ },
		func(k *Key) { k.GOP++ },
		func(k *Key) { k.Slices++ },
		func(k *Key) { k.Entropy = "vlc" },
		func(k *Key) { k.SIMD = true },
	} {
		k := base
		mutate(&k)
		variants = append(variants, k)
		if k.id() == base.id() {
			t.Fatalf("mutation %d did not change the id", i)
		}
	}
	seen := map[string]int{base.id(): -1}
	for i, k := range variants {
		if j, dup := seen[k.id()]; dup {
			t.Fatalf("variants %d and %d collide", i, j)
		}
		seen[k.id()] = i
	}
}

// TestEvictionDuringServe: an entry opened by Get keeps serving after
// being evicted — the unlink drops the name, not the open bytes.
func TestEvictionDuringServe(t *testing.T) {
	const bodyN = 1000
	fileN := int64(bodyN + container.GOPIndexRecordSize(2))
	c, err := Open(t.TempDir(), fileN) // room for exactly one entry
	if err != nil {
		t.Fatal(err)
	}
	body := fillEntry(t, c, testKey(0), bodyN)
	ent, ok := c.Get(testKey(0))
	if !ok {
		t.Fatal("miss")
	}
	defer ent.Close()
	fillEntry(t, c, testKey(1), bodyN) // evicts 0 while it is open

	got, err := io.ReadAll(ent.Body())
	if err != nil {
		t.Fatalf("reading evicted-but-open entry: %v", err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("evicted-but-open entry served wrong bytes")
	}
}

// TestStaleDropKeepsReplacement: dropping a superseded entry (the Get
// open-failure path racing a same-key Commit) must not touch the
// replacement's bookkeeping — identity, not key presence, decides.
func TestStaleDropKeepsReplacement(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(0)
	fillEntry(t, c, key, 300)
	c.mu.Lock()
	stale := c.entries[key.id()]
	c.mu.Unlock()
	body := fillEntry(t, c, key, 500) // same key: replaces the entry

	c.mu.Lock()
	c.dropLocked(stale) // the race's losing drop
	bytes_ := c.bytes
	n := len(c.entries)
	c.mu.Unlock()
	if n != 1 {
		t.Fatalf("stale drop removed the replacement (entries=%d)", n)
	}
	if want := int64(500 + container.GOPIndexRecordSize(2)); bytes_ != want {
		t.Fatalf("byte accounting %d after stale drop, want %d", bytes_, want)
	}
	ent, ok := c.Get(key)
	if !ok {
		t.Fatal("replacement entry lost")
	}
	defer ent.Close()
	got, err := io.ReadAll(ent.Body())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("replacement serves wrong bytes after stale drop")
	}
}

func ExampleKey() {
	k := Key{Codec: "H.264", Seq: "blue_sky", Width: 1280, Height: 720,
		Frames: 250, Q: 5, GOP: 8, Slices: 1, Entropy: "cabac"}
	fmt.Println(len(k.id()))
	// Output: 32
}
