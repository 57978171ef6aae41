// Tests for the serving-tier hardening layer: the disk-backed GOP
// cache (hit/miss equivalence, no-encoder-on-hit, Range/seek over the
// GOP index), POST /transcode, /metrics, per-client rate limiting, and
// the error-path header fixes.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hdvideobench"
	"hdvideobench/internal/container"
)

func cachedServerConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Workers:       2,
		MaxConcurrent: 2,
		MaxFrames:     100,
		CacheDir:      t.TempDir(),
		CacheBytes:    1 << 30,
	}
}

// countEncodes wraps the server's encode hook with an invocation
// counter — the "factory call counter" that pins cache hits to zero
// encoder constructions.
func countEncodes(s *Server) *atomic.Int64 {
	var n atomic.Int64
	inner := s.encode
	s.encode = func(w io.Writer, c hdvideobench.Codec, opts hdvideobench.EncoderOptions,
		frames int, next func() (*hdvideobench.Frame, error)) (hdvideobench.StreamStats, error) {
		n.Add(1)
		return inner(w, c, opts, frames, next)
	}
	return &n
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestCacheHitByteIdenticalWithoutEncoder is the acceptance pin: a
// repeated identical request is served from the disk cache
// byte-identical to the cold encode, without constructing an encoder,
// and /metrics reports the hit.
func TestCacheHitByteIdenticalWithoutEncoder(t *testing.T) {
	s, ts := testServer(t, cachedServerConfig(t))
	encodes := countEncodes(s)
	url := ts.URL + "/transcode?codec=mpeg2&width=96&height=80&frames=6&gop=3"

	cold, coldBody := get(t, url)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", cold.StatusCode, coldBody)
	}
	if got := cold.Header.Get("X-HDVB-Cache"); got != "miss" {
		t.Fatalf("cold X-HDVB-Cache = %q, want miss", got)
	}
	if n := encodes.Load(); n != 1 {
		t.Fatalf("cold encode ran the encoder %d times, want 1", n)
	}

	hit, hitBody := get(t, url)
	if hit.StatusCode != http.StatusOK {
		t.Fatalf("hit status %d: %s", hit.StatusCode, hitBody)
	}
	if got := hit.Header.Get("X-HDVB-Cache"); got != "hit" {
		t.Fatalf("hit X-HDVB-Cache = %q, want hit", got)
	}
	if !bytes.Equal(hitBody, coldBody) {
		t.Fatalf("cache hit served %d bytes differing from the cold encode's %d", len(hitBody), len(coldBody))
	}
	if n := encodes.Load(); n != 1 {
		t.Fatalf("cache hit invoked the encoder (total runs %d, want 1)", n)
	}
	if got, want := hit.Header.Get("X-HDVB-Codec"), "MPEG-2"; got != want {
		t.Fatalf("hit X-HDVB-Codec = %q, want %q", got, want)
	}
	if hit.Header.Get("Accept-Ranges") != "bytes" {
		t.Fatal("cached response does not advertise Accept-Ranges: bytes")
	}

	// The hit must decode like the cold response.
	count := 0
	if _, _, err := hdvideobench.DecodeStream(bytes.NewReader(hitBody), false, 1, 0,
		func(*hdvideobench.Frame) error { count++; return nil }); err != nil {
		t.Fatalf("decoding cached response: %v", err)
	}
	if count != 6 {
		t.Fatalf("cached response decoded %d frames, want 6", count)
	}

	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"hdvserve_cache_hits_total 1",
		"hdvserve_cache_misses_total 1",
		"hdvserve_cache_entries 1",
		"hdvserve_encodes_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestServedStreamDigestMatchesLibrary extends the golden-digest
// equivalence harness (root equivalence_test.go) to the serving tier:
// the cold response, the cache-hit response, and the library's own
// EncodeStream output for the same options must all hash identically —
// the cache can never serve bytes the codec would not produce.
func TestServedStreamDigestMatchesLibrary(t *testing.T) {
	_, ts := testServer(t, cachedServerConfig(t))
	const w, h, frames, gop = 96, 80, 6, 3
	url := fmt.Sprintf("%s/transcode?codec=h264&seq=pedestrian_area&width=%d&height=%d&frames=%d&gop=%d",
		ts.URL, w, h, frames, gop)

	cold, coldBody := get(t, url)
	hit, hitBody := get(t, url)
	if cold.StatusCode != http.StatusOK || hit.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d/%d", cold.StatusCode, hit.StatusCode)
	}

	var lib bytes.Buffer
	gen := hdvideobench.NewSequence(hdvideobench.PedestrianArea, w, h)
	i := 0
	if _, err := hdvideobench.EncodeStream(&lib, hdvideobench.H264,
		hdvideobench.EncoderOptions{Width: w, Height: h, IntraPeriod: gop, Workers: 2}, frames,
		func() (*hdvideobench.Frame, error) {
			if i >= frames {
				return nil, io.EOF
			}
			f := gen.Frame(i)
			i++
			return f, nil
		}); err != nil {
		t.Fatal(err)
	}

	dCold := sha256.Sum256(coldBody)
	dHit := sha256.Sum256(hitBody)
	dLib := sha256.Sum256(lib.Bytes())
	if dCold != dLib {
		t.Fatalf("cold response digest %x differs from library digest %x", dCold, dLib)
	}
	if dHit != dLib {
		t.Fatalf("cache-hit response digest %x differs from library digest %x", dHit, dLib)
	}
}

// TestRangeOverGOPIndex is the seek acceptance pin: a Range request for
// the byte span the entry's GOP index declares returns exactly that
// GOP-aligned span.
func TestRangeOverGOPIndex(t *testing.T) {
	_, ts := testServer(t, cachedServerConfig(t))
	url := ts.URL + "/transcode?codec=mpeg2&width=96&height=80&frames=9&gop=3"

	cold, full := get(t, url)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d", cold.StatusCode)
	}

	idxResp, idxBody := get(t, url+"&index=1")
	if idxResp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d: %s", idxResp.StatusCode, idxBody)
	}
	var idx struct {
		Size int64 `json:"size"`
		GOPs []struct {
			Offset int64 `json:"offset"`
			Frame  int   `json:"frame"`
		} `json:"gops"`
	}
	if err := json.Unmarshal(idxBody, &idx); err != nil {
		t.Fatalf("parsing index JSON: %v\n%s", err, idxBody)
	}
	if idx.Size != int64(len(full)) {
		t.Fatalf("index size %d, body is %d bytes", idx.Size, len(full))
	}
	if len(idx.GOPs) != 3 {
		t.Fatalf("index has %d GOPs, want 3 (9 frames / gop 3)", len(idx.GOPs))
	}
	for i, g := range idx.GOPs {
		if g.Frame != i*3 {
			t.Fatalf("GOP %d starts at frame %d, want %d", i, g.Frame, i*3)
		}
	}

	// Fetch the middle GOP's exact byte span.
	start, end := idx.GOPs[1].Offset, idx.GOPs[2].Offset-1
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", start, end))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	span, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("ranged status %d, want 206", resp.StatusCode)
	}
	wantCR := fmt.Sprintf("bytes %d-%d/%d", start, end, len(full))
	if got := resp.Header.Get("Content-Range"); got != wantCR {
		t.Fatalf("Content-Range = %q, want %q", got, wantCR)
	}
	if !bytes.Equal(span, full[start:end+1]) {
		t.Fatal("ranged body differs from the full body's GOP span")
	}
	// The span is GOP-aligned: it must open with an I packet header.
	if container.FrameType(span[0]) != container.FrameI {
		t.Fatalf("GOP span opens with frame type %q, want I", span[0])
	}
}

// TestColdStreamFirstPacket: a cached cold GET on one worker sends each
// packet as soon as it is coded. The encoder may not pull frame 2 of an
// 8-frame, gop=4 request until the client has the response headers,
// which leave with the first packet; a drain that held the GOP back
// until the next one opens (at frame 4) never gets there. The entry
// committed behind the stream is indexed all the same.
func TestColdStreamFirstPacket(t *testing.T) {
	cfg := cachedServerConfig(t)
	cfg.Workers = 1
	s, ts := testServer(t, cfg)
	headers := make(chan struct{})
	var late atomic.Bool
	inner := s.encode
	s.encode = func(w io.Writer, c hdvideobench.Codec, opts hdvideobench.EncoderOptions,
		frames int, next func() (*hdvideobench.Frame, error)) (hdvideobench.StreamStats, error) {
		pulled := 0
		return inner(w, c, opts, frames, func() (*hdvideobench.Frame, error) {
			if pulled == 2 {
				select {
				case <-headers:
				case <-time.After(10 * time.Second):
					late.Store(true)
				}
			}
			pulled++
			return next()
		})
	}
	url := ts.URL + "/transcode?codec=mpeg2&width=96&height=80&frames=8&gop=4"

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	close(headers)
	cold, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if late.Load() {
		t.Fatal("the encoder waited 10s to pull frame 2: the client had no response headers yet")
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-HDVB-Cache") != "miss" {
		t.Fatalf("cold GET: status %d, cache %q: %s", resp.StatusCode, resp.Header.Get("X-HDVB-Cache"), cold)
	}

	hit, hitBody := get(t, url)
	if hit.Header.Get("X-HDVB-Cache") != "hit" || !bytes.Equal(hitBody, cold) {
		t.Fatalf("repeat GET: cache %q, %d bytes, want a hit equal to the cold %d bytes", hit.Header.Get("X-HDVB-Cache"), len(hitBody), len(cold))
	}
	_, idxBody := get(t, url+"&index=1")
	var idx indexJSON
	if err := json.Unmarshal(idxBody, &idx); err != nil {
		t.Fatalf("parsing index JSON: %v\n%s", err, idxBody)
	}
	if idx.Size != int64(len(cold)) || len(idx.GOPs) != 2 || idx.GOPs[0] != (indexGOPJSON{Offset: 20, Frame: 0}) || idx.GOPs[1].Frame != 4 {
		t.Fatalf("index %s, want GOPs at frames 0 (offset 20) and 4 of %d bytes", idxBody, len(cold))
	}
}

// TestRangeOnColdCache: a Range request that misses the cache encodes
// the entry first and then serves the requested span — one request,
// no priming needed.
func TestRangeOnColdCache(t *testing.T) {
	s, ts := testServer(t, cachedServerConfig(t))
	encodes := countEncodes(s)
	url := ts.URL + "/transcode?codec=mpeg2&width=96&height=80&frames=4&gop=2"

	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Range", "bytes=0-19") // the 20-byte container header
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	head, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status %d, want 206", resp.StatusCode)
	}
	if len(head) != 20 || string(head[:4]) != "HDVB" {
		t.Fatalf("ranged head = %d bytes %q, want the 20-byte HDVB header", len(head), head[:min(len(head), 4)])
	}
	if n := encodes.Load(); n != 1 {
		t.Fatalf("cold ranged request ran the encoder %d times, want 1", n)
	}
	// And the fill is now a regular entry: a full GET is a hit.
	full, _ := get(t, url)
	if got := full.Header.Get("X-HDVB-Cache"); got != "hit" {
		t.Fatalf("follow-up X-HDVB-Cache = %q, want hit", got)
	}
}

// TestErrorResponsesCarryNoStreamHeaders pins the header-ordering fix:
// pre-stream failures (bad params, and an encode failing before any
// output) must answer without Content-Type: application/x-hdvideobench
// or any X-HDVB-* header.
func TestErrorResponsesCarryNoStreamHeaders(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2, MaxConcurrent: 2, MaxFrames: 100})
	assertClean := func(resp *http.Response, wantStatus int) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
		}
		for name := range resp.Header {
			if strings.HasPrefix(name, "X-Hdvb-") {
				t.Fatalf("error response carries stream header %s", name)
			}
		}
		if ct := resp.Header.Get("Content-Type"); ct == StreamContentType {
			t.Fatalf("error response carries stream Content-Type %q", ct)
		}
	}

	resp, _ := get(t, ts.URL+"/transcode?codec=vp9&width=96&height=80&frames=2")
	assertClean(resp, http.StatusBadRequest)

	// A pre-stream encode failure: the hook dies before the first byte.
	s.encode = func(io.Writer, hdvideobench.Codec, hdvideobench.EncoderOptions,
		int, func() (*hdvideobench.Frame, error)) (hdvideobench.StreamStats, error) {
		return hdvideobench.StreamStats{}, errors.New("encoder construction failed")
	}
	resp, body := get(t, ts.URL+"/transcode?width=96&height=80&frames=2&gop=2")
	assertClean(resp, http.StatusBadRequest)
	if !strings.Contains(string(body), "encoder construction failed") {
		t.Fatalf("400 body %q does not surface the failure", body)
	}

	// A ladder rung turned away at capacity, and one whose ladder encode
	// fails: neither has produced a byte of the rung's stream.
	rung := ts.URL + "/transcode?codec=mpeg2&res=576p25&frames=2&ladder=240p&rung=240p"
	for range cap(s.sem) {
		s.sem <- struct{}{}
	}
	resp, _ = get(t, rung)
	assertClean(resp, http.StatusServiceUnavailable)
	for range cap(s.sem) {
		<-s.sem
	}
	s.ladder = func([]io.Writer, hdvideobench.Codec, hdvideobench.EncoderOptions,
		[]hdvideobench.LadderRung, int, func() (*hdvideobench.Frame, error)) ([]hdvideobench.StreamStats, error) {
		return nil, errors.New("ladder encode failed")
	}
	resp, _ = get(t, rung)
	assertClean(resp, http.StatusInternalServerError)
}

// TestBoolParamsStrict pins the ParseBool fix: malformed booleans are
// 400s, not silently false, and every ParseBool spelling is accepted.
func TestBoolParamsStrict(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, MaxConcurrent: 2, MaxFrames: 100})
	base := ts.URL + "/transcode?width=96&height=80&frames=2&gop=2"

	for _, bad := range []string{"simd=yes", "vlc=off", "simd=2", "vlc=maybe", "index=si"} {
		resp, body := get(t, base+"&"+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", bad, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "not a boolean") {
			t.Fatalf("%s: 400 body %q does not name the boolean", bad, body)
		}
	}
	for _, ok := range []string{"simd=true", "simd=T", "vlc=1", "vlc=FALSE", "simd=0&vlc=t"} {
		resp, body := get(t, base+"&"+ok)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200 (%s)", ok, resp.StatusCode, body)
		}
	}
}

// TestPostTranscode uploads an HDVB stream and checks the response is
// its decodable transcode into the requested codec.
func TestPostTranscode(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, MaxConcurrent: 2, MaxFrames: 100})
	const w, h, frames, gop = 96, 80, 6, 3

	var upload bytes.Buffer
	gen := hdvideobench.NewSequence(hdvideobench.RushHour, w, h)
	i := 0
	_, err := hdvideobench.EncodeStream(&upload, hdvideobench.MPEG2,
		hdvideobench.EncoderOptions{Width: w, Height: h, IntraPeriod: gop}, frames,
		func() (*hdvideobench.Frame, error) {
			if i >= frames {
				return nil, io.EOF
			}
			f := gen.Frame(i)
			i++
			return f, nil
		})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/transcode?codec=h264&gop=3", StreamContentType,
		bytes.NewReader(upload.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-HDVB-Codec"); got != "H.264" {
		t.Fatalf("X-HDVB-Codec = %q, want H.264", got)
	}
	count := 0
	hdr, _, err := hdvideobench.DecodeStream(resp.Body, false, 2, 0, func(f *hdvideobench.Frame) error {
		if f.PTS != count {
			return fmt.Errorf("frame %d: PTS %d", count, f.PTS)
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatalf("decoding transcoded stream: %v", err)
	}
	if hdr.Width != w || hdr.Height != h {
		t.Fatalf("transcode served %dx%d, want input dimensions %dx%d", hdr.Width, hdr.Height, w, h)
	}
	if count != frames {
		t.Fatalf("transcode decoded %d frames, want %d", count, frames)
	}
}

// TestPostTranscodeSingleDimensionOverride: POST may override just one
// of width/height (the other copies the input's), and a non-multiple
// dimension is still a 400.
func TestPostTranscodeSingleDimensionOverride(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxConcurrent: 1, MaxFrames: 100})
	const w, h, frames = 96, 80, 2
	var upload bytes.Buffer
	gen := hdvideobench.NewSequence(hdvideobench.BlueSky, w, h)
	i := 0
	if _, err := hdvideobench.EncodeStream(&upload, hdvideobench.MPEG2,
		hdvideobench.EncoderOptions{Width: w, Height: h, IntraPeriod: 2}, frames,
		func() (*hdvideobench.Frame, error) {
			if i >= frames {
				return nil, io.EOF
			}
			f := gen.Frame(i)
			i++
			return f, nil
		}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/transcode?codec=mpeg4&width=96", StreamContentType,
		bytes.NewReader(upload.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("width-only override: status %d, want 200 (%s)", resp.StatusCode, body)
	}
	hdr, _, err := hdvideobench.DecodeStream(resp.Body, false, 1, 0,
		func(*hdvideobench.Frame) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Width != w || hdr.Height != h {
		t.Fatalf("served %dx%d, want %dx%d (height from the input)", hdr.Width, hdr.Height, w, h)
	}

	resp2, err := http.Post(ts.URL+"/transcode?codec=mpeg4&height=100", StreamContentType,
		bytes.NewReader(upload.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("height=100: status %d, want 400", resp2.StatusCode)
	}
}

// TestPostTranscodeBadUpload: garbage uploads fail with a clean
// headerless 400 before any stream bytes.
func TestPostTranscodeBadUpload(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxConcurrent: 1, MaxFrames: 100})
	resp, err := http.Post(ts.URL+"/transcode?codec=mpeg4", StreamContentType,
		strings.NewReader("this is not an HDVB container"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	for name := range resp.Header {
		if strings.HasPrefix(name, "X-Hdvb-") {
			t.Fatalf("bad-upload 400 carries stream header %s", name)
		}
	}
}

// TestPostTranscodeUnknownCodecEveryWorkerCount: an upload whose header
// names no codec is refused with the same headerless 400 at every worker
// count, before any stream bytes.
func TestPostTranscodeUnknownCodecEveryWorkerCount(t *testing.T) {
	var upload bytes.Buffer
	cw, err := container.NewWriter(&upload, container.Header{Codec: container.Codec(9), Width: 96, Height: 80, FPSNum: 25, FPSDen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.WritePacket(container.Packet{Type: container.FrameI, Payload: []byte{5, 0}}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		_, ts := testServer(t, Config{Workers: workers, MaxConcurrent: 1, MaxFrames: 100})
		resp, err := http.Post(fmt.Sprintf("%s/transcode?codec=mpeg2&workers=%d", ts.URL, workers), StreamContentType,
			bytes.NewReader(upload.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown stream codec") {
			t.Errorf("workers=%d: status %d (%q), want 400 naming the unknown codec", workers, resp.StatusCode, body)
		}
		for name := range resp.Header {
			if strings.HasPrefix(name, "X-Hdvb-") {
				t.Errorf("workers=%d: the response carries stream header %s", workers, name)
			}
		}
	}
}

// TestRateLimit429: with a tiny per-client budget the second immediate
// request is rejected with 429 + Retry-After, and /metrics counts it.
func TestRateLimit429(t *testing.T) {
	_, ts := testServer(t, Config{
		Workers: 1, MaxConcurrent: 2, MaxFrames: 100,
		RateLimit: 0.01, RateBurst: 1, // one request, then a 100s refill
	})
	url := ts.URL + "/transcode?width=96&height=80&frames=2&gop=2"
	resp, body := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status %d: %s", resp.StatusCode, body)
	}
	resp, _ = get(t, url)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "hdvserve_rate_limited_total 1") {
		t.Fatalf("/metrics does not count the rejection:\n%s", metrics)
	}
}

// TestEntropyKeyOnlyForH264: vlc= is meaningless outside H.264, so a
// non-H.264 request with it set must share the plain request's cache
// entry instead of re-encoding identical bytes into a second one.
func TestEntropyKeyOnlyForH264(t *testing.T) {
	s, ts := testServer(t, cachedServerConfig(t))
	encodes := countEncodes(s)
	base := ts.URL + "/transcode?codec=mpeg2&width=96&height=80&frames=2&gop=2"
	if resp, _ := get(t, base); resp.StatusCode != http.StatusOK {
		t.Fatal("cold request failed")
	}
	resp, _ := get(t, base+"&vlc=true")
	if resp.StatusCode != http.StatusOK {
		t.Fatal("vlc=true request failed")
	}
	if got := resp.Header.Get("X-HDVB-Cache"); got != "hit" {
		t.Fatalf("mpeg2 vlc=true was a %q, want hit (entropy must not key non-H.264)", got)
	}
	if n := encodes.Load(); n != 1 {
		t.Fatalf("%d encodes for byte-identical mpeg2 requests, want 1", n)
	}
	// For H.264 the entropy coder does change the bytes: distinct entries.
	h264 := ts.URL + "/transcode?codec=h264&width=96&height=80&frames=2&gop=2"
	if resp, _ := get(t, h264); resp.StatusCode != http.StatusOK {
		t.Fatal("h264 cold failed")
	}
	resp, _ = get(t, h264+"&vlc=true")
	if got := resp.Header.Get("X-HDVB-Cache"); got != "miss" {
		t.Fatalf("h264 vlc=true was a %q, want miss (VLC changes the stream)", got)
	}
}

// TestRateLimiterHardCap: the bucket map cannot grow past hardCap no
// matter how many distinct clients arrive inside the prune window.
func TestRateLimiterHardCap(t *testing.T) {
	l := newRateLimiter(1, 2)
	now := time.Unix(1000, 0)
	for i := 0; i < hardCap+500; i++ {
		l.allow(fmt.Sprintf("10.0.%d.%d", i/256, i%256), now) // all active: prune finds nothing idle
	}
	l.mu.Lock()
	n := len(l.buckets)
	l.mu.Unlock()
	if n > hardCap {
		t.Fatalf("bucket map grew to %d, hard cap is %d", n, hardCap)
	}
}

// TestRateLimiterRefill drives the bucket directly with synthetic time:
// burst spends down, refill restores at the configured rate, and
// distinct clients do not share a bucket.
func TestRateLimiterRefill(t *testing.T) {
	l := newRateLimiter(1, 2) // 1 token/s, burst 2
	t0 := time.Unix(1000, 0)
	if !l.allow("a", t0) || !l.allow("a", t0) {
		t.Fatal("burst of 2 not granted")
	}
	if l.allow("a", t0) {
		t.Fatal("third immediate request allowed past the burst")
	}
	if !l.allow("b", t0) {
		t.Fatal("client b throttled by client a's bucket")
	}
	if l.allow("a", t0.Add(500*time.Millisecond)) {
		t.Fatal("half a token spent as a whole one")
	}
	if !l.allow("a", t0.Add(2*time.Second)) {
		t.Fatal("refilled token not granted")
	}
}

// TestMetricsEndpoint checks the exposition shape: every series the
// dashboards would scrape is present, typed, and parseable.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, cachedServerConfig(t))
	if resp, _ := get(t, ts.URL+"/transcode?width=96&height=80&frames=2&gop=2&codec=mpeg2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up request failed: %d", resp.StatusCode)
	}
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, series := range []string{
		`hdvserve_requests_total{endpoint="transcode",method="GET"} 1`,
		`hdvserve_requests_total{endpoint="transcode",method="POST"} 0`,
		"hdvserve_active_requests 0",
		"hdvserve_streams_served_total 1",
		"hdvserve_uploads_transcoded_total 0",
		"hdvserve_encodes_total 1",
		"hdvserve_encode_seconds_total ",
		"hdvserve_bytes_served_total ",
		"hdvserve_rate_limited_total 0",
		"hdvserve_capacity_rejections_total 0",
		"hdvserve_cache_hits_total 0",
		"hdvserve_cache_misses_total 1",
		"hdvserve_cache_evictions_total 0",
		"hdvserve_cache_entries 1",
		"hdvserve_cache_bytes ",
		"# TYPE hdvserve_cache_bytes gauge",
		"# TYPE hdvserve_requests_total counter",
	} {
		if !strings.Contains(string(body), series) {
			t.Fatalf("/metrics missing %q:\n%s", series, body)
		}
	}
}

// TestIndexRequiresCache: index=1 without -cache-dir is a clean 400.
func TestIndexRequiresCache(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxConcurrent: 1, MaxFrames: 100})
	resp, body := get(t, ts.URL+"/transcode?width=96&height=80&frames=2&gop=2&index=1")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
	}
}

// TestCacheSurvivesRestart: a new server over the same cache directory
// serves the old entries without re-encoding.
func TestCacheSurvivesRestart(t *testing.T) {
	cfg := cachedServerConfig(t)
	s1, ts1 := testServer(t, cfg)
	countEncodes(s1)
	url1 := "/transcode?codec=mpeg4&width=96&height=80&frames=4&gop=2"
	cold, coldBody := get(t, ts1.URL+url1)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d", cold.StatusCode)
	}
	ts1.Close()

	s2, ts2 := testServer(t, cfg) // same CacheDir
	encodes := countEncodes(s2)
	hit, hitBody := get(t, ts2.URL+url1)
	if hit.StatusCode != http.StatusOK {
		t.Fatalf("restart hit status %d", hit.StatusCode)
	}
	if got := hit.Header.Get("X-HDVB-Cache"); got != "hit" {
		t.Fatalf("restart X-HDVB-Cache = %q, want hit", got)
	}
	if !bytes.Equal(hitBody, coldBody) {
		t.Fatal("restarted server serves different bytes")
	}
	if encodes.Load() != 0 {
		t.Fatal("restarted server re-encoded a cached entry")
	}
}
