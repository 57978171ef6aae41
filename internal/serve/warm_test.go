package serve

import (
	"bytes"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hdvideobench/internal/container"
	"hdvideobench/internal/obs"
)

// handedSource is what one ReadFrom call on a sourceLogWriter received.
type handedSource struct {
	typ  string // the source's type; for an *io.LimitedReader, also its R's
	file bool   // an *io.LimitedReader over an *os.File: net's sendfile shape
	n    int64  // the LimitedReader's N when handed over
}

// sourceLog collects the sources handed to ReadFrom across requests.
type sourceLog struct {
	mu   sync.Mutex
	srcs []handedSource
}

func (l *sourceLog) take() []handedSource {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.srcs
	l.srcs = nil
	return out
}

// sourceLogWriter is a ResponseWriter that implements io.ReaderFrom,
// records each source it is handed, and passes it on to the server's own
// ReadFrom, so the bytes still reach the client through sendfile.
type sourceLogWriter struct {
	http.ResponseWriter
	log *sourceLog
}

func (w sourceLogWriter) ReadFrom(src io.Reader) (int64, error) {
	h := handedSource{typ: fmt.Sprintf("%T", src)}
	if lr, ok := src.(*io.LimitedReader); ok {
		_, h.file = lr.R.(*os.File)
		h.typ += fmt.Sprintf("{%T}", lr.R)
		h.n = lr.N
	}
	w.log.mu.Lock()
	w.log.srcs = append(w.log.srcs, h)
	w.log.mu.Unlock()
	return w.ResponseWriter.(io.ReaderFrom).ReadFrom(src)
}

// TestWarmHitSendfile: a cache hit's body reaches the writer as the
// entry's own file under an *io.LimitedReader of the span — the shape
// net's sendfile path takes — for a full GET, a single range, a suffix
// range and an If-Range mismatch; a multipart response goes through
// ReadFrom with its generic pipe source; HEAD sends nothing. Every body
// is the matching slice of the cold body, and the bytes-served counter
// and the ring record count exactly the bytes the client received.
func TestWarmHitSendfile(t *testing.T) {
	s, err := New(cachedServerConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var log sourceLog
	routes := s.Routes()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		routes.ServeHTTP(sourceLogWriter{w, &log}, r)
	}))
	t.Cleanup(ts.Close)
	const path = "/transcode?codec=mpeg2&width=96&height=80&frames=6&gop=3"

	_, cold := get(t, ts.URL+path)
	if srcs := log.take(); len(srcs) != 0 {
		t.Fatalf("the cold stream went through ReadFrom (%+v): its cache fill tee was bypassed", srcs)
	}
	size := int64(len(cold))
	a, b := size/4, size/2

	for i, tc := range []struct {
		name     string
		method   string
		header   map[string]string
		status   int
		want     [][]byte // the body, or a multipart response's parts
		sendfile int64    // span handed over as a file; 0 = no file source
	}{
		{"full", "GET", nil, http.StatusOK, [][]byte{cold}, size},
		{"range", "GET", map[string]string{"Range": fmt.Sprintf("bytes=%d-%d", a, b)},
			http.StatusPartialContent, [][]byte{cold[a : b+1]}, b - a + 1},
		{"suffix", "GET", map[string]string{"Range": "bytes=-100"},
			http.StatusPartialContent, [][]byte{cold[size-100:]}, 100},
		{"multipart", "GET", map[string]string{"Range": "bytes=0-9,20-29"},
			http.StatusPartialContent, [][]byte{cold[0:10], cold[20:30]}, 0},
		{"head", "HEAD", nil, http.StatusOK, [][]byte{nil}, 0},
		{"if-range-mismatch", "GET", map[string]string{"Range": "bytes=0-9", "If-Range": `"stale"`},
			http.StatusOK, [][]byte{cold}, size},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := s.m.bytesServed.Value()
			req, err := http.NewRequest(tc.method, ts.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range tc.header {
				req.Header.Set(k, v)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || resp.Header.Get("X-HDVB-Cache") != "hit" {
				t.Fatalf("status %d, X-HDVB-Cache %q; want %d, hit", resp.StatusCode, resp.Header.Get("X-HDVB-Cache"), tc.status)
			}
			if got := warmParts(t, resp, raw); len(got) != len(tc.want) {
				t.Fatalf("%d body parts, want %d", len(got), len(tc.want))
			} else {
				for j := range got {
					if !bytes.Equal(got[j], tc.want[j]) {
						t.Fatalf("part %d: %d bytes differ from the cold body's %d", j, len(got[j]), len(tc.want[j]))
					}
				}
			}
			if tc.method == "HEAD" {
				if cl := resp.Header.Get("Content-Length"); cl != strconv.FormatInt(size, 10) {
					t.Fatalf("HEAD Content-Length %q, want %d", cl, size)
				}
			}

			rec := requestRecords(t, s, i+2)[0]
			if rec.Method != tc.method || rec.Path != path {
				t.Fatalf("newest ring record is %s %s", rec.Method, rec.Path)
			}
			if rec.Bytes != int64(len(raw)) {
				t.Fatalf("ring record Bytes %d, client received %d", rec.Bytes, len(raw))
			}
			if d := s.m.bytesServed.Value() - before; d != float64(len(raw)) {
				t.Fatalf("hdvserve_bytes_served_total moved by %v, client received %d", d, len(raw))
			}

			srcs := log.take()
			switch {
			case tc.sendfile > 0:
				if len(srcs) != 1 || !srcs[0].file || srcs[0].n != tc.sendfile {
					t.Fatalf("ReadFrom sources %+v, want one *io.LimitedReader{*os.File} of %d bytes", srcs, tc.sendfile)
				}
			case tc.method == "HEAD":
				if len(srcs) != 0 {
					t.Fatalf("HEAD handed ReadFrom %+v", srcs)
				}
			default:
				if len(srcs) != 1 || srcs[0].file {
					t.Fatalf("ReadFrom sources %+v, want one generic source", srcs)
				}
			}
		})
	}
}

// warmParts splits a response into its body parts: the parts of a
// multipart/byteranges response, else the body itself.
func warmParts(t *testing.T, resp *http.Response, raw []byte) [][]byte {
	t.Helper()
	mt, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || mt != "multipart/byteranges" {
		return [][]byte{raw}
	}
	var parts [][]byte
	mr := multipart.NewReader(bytes.NewReader(raw), params["boundary"])
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			return parts
		}
		if err != nil {
			t.Fatal(err)
		}
		part, err := io.ReadAll(p)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
}

// TestWarmHitClientDisconnect: a client that hangs up mid warm body,
// with the rest of the body still queued behind full socket buffers,
// ends the sendfile; the handler returns, closes the entry, and its ring
// record counts fewer bytes than the body.
func TestWarmHitClientDisconnect(t *testing.T) {
	cfg := Config{Workers: 2, MaxConcurrent: 1, MaxFrames: 5000, CacheDir: t.TempDir()}
	s, ts := testServer(t, cfg)
	const path = "/transcode?codec=mpeg2&width=96&height=80&frames=6&gop=3"

	// Prime the key with 64 MiB, more than loopback's socket buffers can
	// hold (tcp_wmem and tcp_rmem maxima are 4 and 6 MiB by default). A
	// hit serves the entry's bytes without parsing them.
	p, err := s.parseTranscode(httptest.NewRequest("GET", path, nil))
	if err != nil {
		t.Fatal(err)
	}
	const size = 64 << 20
	fill, err := s.cache.NewFill(p.key)
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte("hdvb"), 1<<18)
	for range size / len(chunk) {
		fill.Write(chunk)
	}
	ent, err := fill.Commit(container.GOPIndex{Size: size})
	if err != nil {
		t.Fatal(err)
	}
	ent.Close()
	files, _ := filepath.Glob(filepath.Join(cfg.CacheDir, "*.gop"))
	if len(files) != 1 {
		t.Fatalf("primed cache holds %v, want one entry", files)
	}

	disconnectMidStream(t, ts, path)

	var rec obs.RequestRecord
	for deadline := time.Now().Add(10 * time.Second); rec.Path != path; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the warm handler never returned after the client hung up")
		}
		for _, r := range requestRecords(t, s, 1) {
			if r.Path == path {
				rec = r
			}
		}
	}
	if rec.Cache != "hit" || rec.Bytes <= 0 || rec.Bytes >= size {
		t.Fatalf("ring record cache %q, %d bytes; want a hit short of the %d-byte body", rec.Cache, rec.Bytes, size)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	for _, fd := range fds {
		if link, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(link, files[0]) {
			t.Fatalf("descriptor %s still open on the served entry %s", fd.Name(), link)
		}
	}
}
