// Package gopcache is the disk-backed LRU cache of coded GOP streams
// behind cmd/hdvserve: identical transcode requests used to re-encode
// from scratch every time, which made repeat traffic CPU-bound; caching
// the coded container turns it into I/O-bound serving, the classic
// CDN/origin split. The streaming encoder's closed-GOP chunk boundary is
// the natural cache unit — every entry carries a GOP index trailer
// (container.GOPIndex) recording where each chunk starts in the byte
// stream, so ranged/seeking clients get GOP-aligned spans without the
// server re-parsing anything.
//
// # On-disk layout
//
// Each entry is one file, <sha256(key)>.gop, holding the exact container
// bytes a cold encode streams to the client followed by the GOP index
// record (see container.ReadGOPIndexTrailer). Because the body is the
// verbatim byte stream, a cache hit is byte-identical to the cold
// response by construction. Fills write to fill-* temp files in the same
// directory and rename into place on Commit, so a crashed or aborted
// fill never leaves a half-entry behind; Open sweeps leftover temp files
// and re-adopts every well-formed entry, making the cache durable across
// restarts.
//
// # Concurrency and eviction
//
// All bookkeeping sits behind one mutex; file I/O happens outside it.
// Get returns an opened *os.File, so an entry evicted while being served
// keeps streaming — the unlink only drops the name (POSIX semantics),
// the bytes live until the last descriptor closes. Eviction is LRU by
// access order against a byte budget, and never evicts the entry just
// admitted: the budget is firm for steady state but soft by one entry,
// so a single oversized stream still caches rather than thrashing.
package gopcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdvideobench/internal/container"
)

// Key identifies one cacheable encode: every field that shapes the
// coded bytes. Worker count and window deliberately do not appear —
// the pipeline's determinism guarantee makes the output byte-identical
// across both, so all parallelism settings share one entry.
type Key struct {
	Codec   string // target codec name
	Seq     string // source sequence name
	Width   int
	Height  int
	Frames  int
	Q       int
	GOP     int    // IntraPeriod (the chunk/seek unit)
	Slices  int    // effective slice count (slices change the bitstream)
	Entropy string // H.264 entropy coder ("", "cabac", "vlc")
	SIMD    bool   // kernel set (bit-exact today, keyed defensively)
	Rung    string // ladder rung name ("" = plain single-stream encode)
	Kbps    int    // bitrate target in kbps (0 = constant-Q)
}

// id returns the entry filename stem: a hash of the canonical key
// string, so keys never need escaping and filenames stay fixed-length.
func (k Key) id() string {
	s := fmt.Sprintf("%s|%s|%d|%d|%d|%d|%d|%d|%s|%t|%s|%d",
		k.Codec, k.Seq, k.Width, k.Height, k.Frames, k.Q, k.GOP, k.Slices, k.Entropy, k.SIMD, k.Rung, k.Kbps)
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}

const entrySuffix = ".gop"

// Stats is a point-in-time cache summary (the /metrics feed).
type Stats struct {
	Entries   int
	Bytes     int64 // total file bytes on disk (index trailers included)
	Budget    int64
	Hits      int64
	Misses    int64
	Evictions int64
}

// Cache is the disk-backed LRU. Safe for concurrent use.
type Cache struct {
	dir    string
	budget int64 // byte budget; <= 0 means unlimited

	mu      sync.Mutex
	entries map[string]*entry // guarded by mu; by Key.id()
	lru     *list.List        // guarded by mu; front = oldest, back = most recent; values are *entry
	bytes   int64             // guarded by mu

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type entry struct {
	id   string
	size int64 // file size, index trailer included
	idx  container.GOPIndex
	elem *list.Element
}

// Open attaches a cache to dir (created if missing), re-adopting every
// well-formed entry already there — oldest-modified first, so restart
// keeps a sensible LRU order — and sweeping temp files and corrupt
// entries. budget <= 0 disables eviction.
func Open(dir string, budget int64) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("gopcache: %w", err)
	}
	c := &Cache{
		dir:     dir,
		budget:  budget,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("gopcache: %w", err)
	}
	type found struct {
		e   *entry
		mod time.Time
	}
	var adopt []found
	for _, de := range names {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, "fill-") {
			os.Remove(filepath.Join(dir, name)) // crashed fill
			continue
		}
		if !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		path := filepath.Join(dir, name)
		fi, err := de.Info()
		if err != nil {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		idx, ierr := container.ReadGOPIndexTrailer(f, fi.Size())
		f.Close()
		if ierr != nil {
			os.Remove(path) // corrupt or foreign: not servable
			continue
		}
		adopt = append(adopt, found{
			e:   &entry{id: strings.TrimSuffix(name, entrySuffix), size: fi.Size(), idx: idx},
			mod: fi.ModTime(),
		})
	}
	sort.Slice(adopt, func(i, j int) bool { return adopt[i].mod.Before(adopt[j].mod) })
	for _, a := range adopt {
		a.e.elem = c.lru.PushBack(a.e)
		c.entries[a.e.id] = a.e
		c.bytes += a.e.size
	}
	c.mu.Lock()
	c.evictLocked(nil)
	c.mu.Unlock()
	return c, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(id string) string { return filepath.Join(c.dir, id+entrySuffix) }

// Entry is an opened cache entry: the container bytes plus their GOP
// index. Close it when done serving; eviction cannot invalidate an open
// entry (the file stays readable until closed).
type Entry struct {
	f       *os.File
	Index   container.GOPIndex
	ModTime time.Time
}

// Size returns the container byte length (the served body — the on-disk
// file is larger by the index trailer).
func (e *Entry) Size() int64 { return e.Index.Size }

// Body returns a fresh ReadSeeker over the container bytes, excluding
// the index trailer — the shape http.ServeContent wants.
func (e *Entry) Body() *io.SectionReader { return io.NewSectionReader(e.f, 0, e.Index.Size) }

// Close releases the entry's file.
func (e *Entry) Close() error { return e.f.Close() }

// Get opens the entry for key, bumping it to most-recently-used, and
// counts the hit or miss. An entry whose file has vanished underneath
// the cache (external cleanup) is dropped and reported as a miss.
func (c *Cache) Get(key Key) (*Entry, bool) {
	id := key.id()
	c.mu.Lock()
	e, ok := c.entries[id]
	if ok {
		c.lru.MoveToBack(e.elem)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	ent, err := c.open(e)
	if err != nil {
		c.mu.Lock()
		c.dropLocked(e)
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return ent, true
}

func (c *Cache) open(e *entry) (*Entry, error) {
	f, err := os.Open(c.path(e.id))
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil || fi.Size() != e.size {
		f.Close()
		if err == nil {
			err = fmt.Errorf("gopcache: entry %s resized under the cache", e.id)
		}
		return nil, err
	}
	return &Entry{f: f, Index: e.idx, ModTime: fi.ModTime()}, nil
}

// dropLocked removes an entry's bookkeeping (and nothing else). It
// checks identity, not just key presence: a Get whose file open failed
// races against a same-key Commit that already replaced the entry, and
// dropping the replacement here would corrupt the byte accounting and
// strand its LRU element.
//
//hdvlint:locked mu
func (c *Cache) dropLocked(e *entry) {
	if c.entries[e.id] != e {
		return
	}
	delete(c.entries, e.id)
	c.lru.Remove(e.elem)
	c.bytes -= e.size
}

// evictLocked removes oldest entries until the byte budget holds,
// sparing keep (the entry just admitted).
//
//hdvlint:locked mu
func (c *Cache) evictLocked(keep *entry) {
	if c.budget <= 0 {
		return
	}
	for c.bytes > c.budget {
		oldest := c.lru.Front()
		if oldest == nil {
			return
		}
		e := oldest.Value.(*entry)
		if e == keep {
			return // budget soft by one entry: never evict the newcomer
		}
		c.dropLocked(e)
		os.Remove(c.path(e.id))
		c.evictions.Add(1)
	}
}

// Fill is an in-progress cache population: an io.Writer onto a temp
// file that becomes the entry atomically on Commit. A Fill that is
// never committed must be Aborted; both are idempotent and safe after
// the other (the later call is a no-op).
//
// The first write failure sticks: later Writes return it without
// writing, and Commit aborts the fill instead of sealing a torn body.
// A caller teeing a response into the fill can therefore ignore the
// tee's errors and learn of them from Commit (or Err).
type Fill struct {
	c    *Cache
	id   string
	f    *os.File
	n    int64
	err  error // first write failure
	done bool
}

// NewFill starts populating the entry for key. The caller streams the
// exact container bytes through Write (typically teed off the response)
// and finishes with Commit or Abort.
func (c *Cache) NewFill(key Key) (*Fill, error) {
	f, err := os.CreateTemp(c.dir, "fill-*")
	if err != nil {
		return nil, fmt.Errorf("gopcache: %w", err)
	}
	return &Fill{c: c, id: key.id(), f: f}, nil
}

// Write appends container bytes to the pending entry.
func (f *Fill) Write(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	n, err := f.f.Write(p)
	f.n += int64(n)
	f.err = err
	return n, err
}

// Err returns the fill's first write failure, nil while every write has
// succeeded.
func (f *Fill) Err() error { return f.err }

// Written returns the container bytes the fill has accepted.
func (f *Fill) Written() int64 { return f.n }

// Commit seals the fill: the GOP index (whose Size must equal the bytes
// written) is appended as the entry's trailer, the temp file moves into
// place atomically, and the entry becomes servable — returned opened,
// without touching the hit/miss counters, so a miss that just filled
// can serve the result directly. Over-budget older entries are evicted.
func (f *Fill) Commit(idx container.GOPIndex) (*Entry, error) {
	if f.done {
		return nil, fmt.Errorf("gopcache: fill already finished")
	}
	if f.err != nil {
		f.Abort()
		return nil, fmt.Errorf("gopcache: fill write failed: %w", f.err)
	}
	if idx.Size != f.n {
		f.Abort()
		return nil, fmt.Errorf("gopcache: index declares %d container bytes, fill wrote %d", idx.Size, f.n)
	}
	if _, err := container.WriteGOPIndex(f.f, idx); err != nil {
		f.Abort()
		return nil, fmt.Errorf("gopcache: writing index trailer: %w", err)
	}
	size := f.n + int64(container.GOPIndexRecordSize(len(idx.Entries)))
	tmp := f.f.Name()
	if err := f.f.Close(); err != nil {
		f.done = true
		os.Remove(tmp)
		return nil, fmt.Errorf("gopcache: %w", err)
	}
	f.done = true
	c := f.c
	if err := os.Rename(tmp, c.path(f.id)); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("gopcache: %w", err)
	}
	e := &entry{id: f.id, size: size, idx: idx}
	c.mu.Lock()
	if old, ok := c.entries[f.id]; ok {
		c.dropLocked(old) // concurrent fill of the same key: last one wins
	}
	e.elem = c.lru.PushBack(e)
	c.entries[f.id] = e
	c.bytes += e.size
	c.evictLocked(e)
	c.mu.Unlock()
	return c.open(e)
}

// Abort discards the fill.
func (f *Fill) Abort() {
	if f.done {
		return
	}
	f.done = true
	f.f.Close()
	os.Remove(f.f.Name())
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	s := Stats{
		Entries: len(c.entries),
		Bytes:   c.bytes,
		Budget:  c.budget,
	}
	c.mu.Unlock()
	s.Hits = c.hits.Load()
	s.Misses = c.misses.Load()
	s.Evictions = c.evictions.Load()
	return s
}
