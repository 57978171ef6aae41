package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hdvideobench/internal/obs"
)

// scrape fetches and parses /metrics from a test server, returning the
// raw bytes too for LintText.
func scrape(t *testing.T, base string) ([]obs.TextFamily, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(body)
	if err != nil {
		t.Fatalf("metrics do not parse: %v\n%s", err, body)
	}
	return fams, body
}

// TestMetricsExpositionLints warms a cached server with a cold and a
// warm request plus a POST failure, then runs the full exposition lint
// (types, histogram bucket consistency, duplicate detection) over a
// live scrape.
func TestMetricsExpositionLints(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, MaxConcurrent: 2, MaxFrames: 100, CacheDir: t.TempDir()})
	url := ts.URL + "/transcode?codec=mpeg2&width=96&height=80&frames=6&gop=2"
	for range 2 { // miss then hit
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+"/transcode", StreamContentType, strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	fams, raw := scrape(t, ts.URL)
	if err := obs.LintText(raw); err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
	vals := obs.Values(fams)

	// Every pre-registry series name must survive the registry port.
	for _, name := range []string{
		`hdvserve_requests_total{endpoint="transcode",method="GET"}`,
		`hdvserve_requests_total{endpoint="transcode",method="POST"}`,
		"hdvserve_active_requests",
		"hdvserve_streams_served_total",
		"hdvserve_uploads_transcoded_total",
		"hdvserve_encodes_total",
		"hdvserve_encode_seconds_total",
		"hdvserve_bytes_served_total",
		"hdvserve_rate_limited_total",
		"hdvserve_capacity_rejections_total",
		"hdvserve_cache_hits_total",
		"hdvserve_cache_misses_total",
		"hdvserve_cache_evictions_total",
		"hdvserve_cache_entries",
		"hdvserve_cache_bytes",
		"hdvserve_cache_budget_bytes",
	} {
		if _, ok := vals[name]; !ok {
			t.Errorf("series %s missing from exposition", name)
		}
	}

	// The new histogram families must be present as histograms.
	hists := map[string]bool{}
	for _, f := range fams {
		if f.Type == "histogram" {
			hists[f.Name] = true
		}
	}
	for _, name := range []string{
		"hdvserve_request_seconds", "hdvserve_ttfb_seconds",
		"hdvserve_cold_encode_seconds", "hdvserve_cache_fill_seconds",
		"hdvserve_chunk_encode_seconds", "hdvserve_drain_stall_seconds",
		"hdvserve_gate_wait_seconds",
	} {
		if !hists[name] {
			t.Errorf("histogram family %s missing", name)
		}
	}

	// The warm/cold pair lands in the right labeled counts.
	if got := vals[`hdvserve_request_seconds_count{cache="hit",codec="MPEG-2",endpoint="transcode",res="96x80"}`]; got != 1 {
		t.Errorf("hit request count = %v, want 1", got)
	}
	if got := vals[`hdvserve_request_seconds_count{cache="miss",codec="MPEG-2",endpoint="transcode",res="96x80"}`]; got != 1 {
		t.Errorf("miss request count = %v, want 1", got)
	}
	if got := vals[`hdvserve_cold_encode_seconds_count{cache="miss",codec="MPEG-2",endpoint="transcode",res="96x80"}`]; got != 1 {
		t.Errorf("cold encode count = %v, want 1", got)
	}
	if got := vals[`hdvserve_cache_fill_seconds_count{cache="miss",codec="MPEG-2",endpoint="transcode",res="96x80"}`]; got != 1 {
		t.Errorf("cache fill count = %v, want 1", got)
	}
}

// TestServerTimingAndRequestLog drives a cold, then a warm, GET for the
// same key and checks the two are distinguishable: the cold response
// announces "miss" in its Server-Timing header and delivers the encode
// phase in the trailer; the warm one carries "hit" plus its phases in
// the header. Both must land in /debug/requests with IDs and phases.
func TestServerTimingAndRequestLog(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2, MaxConcurrent: 2, MaxFrames: 100, CacheDir: t.TempDir()})
	url := ts.URL + "/transcode?codec=mpeg2&width=96&height=80&frames=6&gop=2"

	// Cold: miss marker in the header, encode phase in the trailer.
	req, _ := http.NewRequest("GET", url, nil)
	req.Header.Set("X-Request-ID", "test-cold-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "test-cold-1" {
		t.Errorf("request ID not propagated: %q", got)
	}
	st := resp.Header.Get("Server-Timing")
	if !strings.Contains(st, "miss") {
		t.Errorf("cold Server-Timing header %q lacks miss marker", st)
	}
	if strings.Contains(st, "enc;") {
		t.Errorf("cold Server-Timing header %q has enc phase before it could finish", st)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close() // trailers are only valid after the body is drained
	if tst := resp.Trailer.Get("Server-Timing"); !strings.Contains(tst, "enc;dur=") || !strings.Contains(tst, "gen;dur=") {
		t.Errorf("cold Server-Timing trailer %q lacks enc or gen phase", tst)
	}

	// Warm: hit marker and phases directly in the header, no trailer.
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if id := resp.Header.Get("X-Request-ID"); id == "" {
		t.Error("no generated X-Request-ID on warm response")
	}
	st = resp.Header.Get("Server-Timing")
	if !strings.Contains(st, "hit") || !strings.Contains(st, "cache;dur=") {
		t.Errorf("warm Server-Timing header %q lacks hit marker or cache phase", st)
	}
	if strings.Contains(st, "enc;") {
		t.Errorf("warm Server-Timing header %q has an enc phase", st)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Both requests are in the debug ring, newest first, with phases. A
	// record lands after its handler returns, which the client can beat.
	var out struct {
		Requests []obs.RequestRecord `json:"requests"`
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		rr := httptest.NewRecorder()
		s.DebugRoutes().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/requests", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("/debug/requests status %d", rr.Code)
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
			t.Fatalf("/debug/requests not JSON: %v\n%s", err, rr.Body.String())
		}
		if len(out.Requests) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring has %d records, want 2", len(out.Requests))
		}
	}
	warm, cold := out.Requests[0], out.Requests[1]
	if cold.ID != "test-cold-1" {
		t.Errorf("cold record ID = %q", cold.ID)
	}
	if cold.Cache != "miss" || warm.Cache != "hit" {
		t.Errorf("cache dispositions = %q/%q, want miss/hit", cold.Cache, warm.Cache)
	}
	// phases maps a record's phase names to their durations; a phase
	// recorded twice would show as a count mismatch.
	phases := func(rec obs.RequestRecord) map[string]float64 {
		m := map[string]float64{}
		for _, p := range rec.Phases {
			m[p.Name] = p.MS
		}
		if len(m) != len(rec.Phases) {
			t.Errorf("phases %v repeat a name", rec.Phases)
		}
		return m
	}
	// The cold path generates its frames while encoding them: "enc" is
	// the wall time of the encode call and contains "gen", the time the
	// frame feed spent in the sequence generator.
	p := phases(cold)
	_, cached := p["cache"]
	if gen, enc := p["gen"], p["enc"]; !cached || gen <= 0 || enc < gen {
		t.Errorf("cold phases %v: want cache, and 0 < gen <= enc", cold.Phases)
	}
	p = phases(warm)
	for _, name := range []string{"enc", "gen"} {
		if _, ok := p[name]; ok {
			t.Errorf("warm phases %v should not have %s", warm.Phases, name)
		}
	}
	for _, name := range []string{"cache", "write"} {
		if _, ok := p[name]; !ok {
			t.Errorf("warm phases %v lack %s", warm.Phases, name)
		}
	}
	for _, rec := range out.Requests {
		if rec.Status != http.StatusOK || rec.Bytes == 0 || rec.DurationMS <= 0 {
			t.Errorf("incomplete record: %+v", rec)
		}
	}
}

// TestPipelineSeriesMoveUnderLoad runs a deterministic multi-GOP encode
// through the HTTP path and asserts the threaded Collector's series
// moved: exact chunk count in the encode histogram, drain stalls
// observed, and the queue gauge balanced back to zero. No sleeps — all
// counts are structural properties of frames/gop.
func TestPipelineSeriesMoveUnderLoad(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, MaxConcurrent: 2, MaxFrames: 100})
	resp, err := http.Get(ts.URL + "/transcode?codec=mpeg2&width=96&height=80&frames=12&gop=2&workers=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	fams, _ := scrape(t, ts.URL)
	vals := obs.Values(fams)
	if got := vals["hdvserve_chunk_encode_seconds_count"]; got != 6 {
		t.Errorf("chunk encode count = %v, want 6 (12 frames / gop 2)", got)
	}
	if got := vals["hdvserve_drain_stall_seconds_count"]; got < 6 {
		t.Errorf("drain stall count = %v, want >= 6", got)
	}
	if got := vals["hdvserve_chunk_queue_depth"]; got != 0 {
		t.Errorf("queue depth at rest = %v, want 0", got)
	}
}

// TestHealthzJSON decodes /healthz strictly: it must be a well-formed
// JSON object with the documented fields, not a printf lookalike.
func TestHealthzJSON(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxConcurrent: 3})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	var out struct {
		Status   string `json:"status"`
		Active   int64  `json:"active"`
		Capacity int    `json:"capacity"`
		Served   int64  `json:"served"`
	}
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("healthz not strict JSON: %v", err)
	}
	if out.Status != "ok" || out.Capacity != 3 || out.Active != 0 {
		t.Errorf("healthz = %+v", out)
	}
}

// TestDebugMuxIsolation: the public handler must not expose the debug
// surface, and the debug handler must serve pprof and the request ring.
func TestDebugMuxIsolation(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, MaxConcurrent: 1})
	for _, path := range []string{"/debug/pprof/", "/debug/requests"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("public %s status = %d, want 404", path, resp.StatusCode)
		}
	}
	dts := httptest.NewServer(s.DebugRoutes())
	defer dts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/requests"} {
		resp, err := http.Get(dts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("debug %s status = %d, want 200", path, resp.StatusCode)
		}
	}
}
