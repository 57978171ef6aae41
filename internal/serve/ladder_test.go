// Tests for the ladder serving path (manifest, rung selection, per-rung
// cache entries, malformed-ladder 400s) and the singleflight coalescing
// of concurrent cold cache fills.
package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdvideobench"
	"hdvideobench/internal/container"
)

// countLadders wraps the server's ladder hook with an invocation
// counter, the ladder counterpart of countEncodes.
func countLadders(s *Server) *atomic.Int64 {
	var n atomic.Int64
	inner := s.ladder
	s.ladder = func(ws []io.Writer, c hdvideobench.Codec, opts hdvideobench.EncoderOptions,
		rungs []hdvideobench.LadderRung, frames int, next func() (*hdvideobench.Frame, error)) ([]hdvideobench.StreamStats, error) {
		n.Add(1)
		return inner(ws, c, opts, rungs, frames, next)
	}
	return &n
}

// TestLadderBadRequests pins the strict-400 behavior of the ladder
// parameters: unknown rungs, duplicates, rungs exceeding the mezzanine,
// malformed bitrates, rung selections outside the ladder, and the
// parameter combinations the ladder path refuses.
func TestLadderBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxConcurrent: 1, MaxFrames: 300})
	cases := []struct {
		name, query, wantSub string
	}{
		{"unknown rung", "ladder=999p&res=576p25", "unknown resolution"},
		{"duplicate rung", "ladder=240p,240p25&res=576p25", "duplicate ladder rung"},
		{"rung exceeds mezzanine", "ladder=720p&res=576p25", "exceeds mezzanine"},
		{"bad bitrate", "ladder=240p@abc&res=576p25", "invalid rung bitrate"},
		{"zero bitrate", "ladder=240p@0&res=576p25", "invalid rung bitrate"},
		{"empty rung", "ladder=240p,,576p&res=576p25", "empty rung"},
		{"rung not in ladder", "ladder=240p&res=576p25&rung=576p", "is not in ladder"},
		{"unknown rung selection", "ladder=240p&res=576p25&rung=999p", "unknown resolution"},
		{"rung without ladder", "rung=240p&res=576p25", "rung requires ladder"},
		{"index with ladder", "ladder=240p&res=576p25&index=1", "index requires rung"},
		{"too many frames", "ladder=240p&res=576p25&frames=301", "frames: 301 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, ts.URL+"/transcode?codec=mpeg2&"+tc.query)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %q)", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.wantSub) {
				t.Fatalf("body %q does not mention %q", body, tc.wantSub)
			}
		})
	}
}

// TestLadderRungDisconnectMidStream is the ladder twin of
// TestClientDisconnectMidStream: a rung GET streams its rung as the pass
// codes it, so a client that drops after the first bytes of a
// 5000-frame ladder stops the pass and hands its encoding slot back.
// MPEG-2 at gop=2 keeps the chunk a teardown waits for short under -race.
func TestLadderRungDisconnectMidStream(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, MaxConcurrent: 1, MaxFrames: 5000})
	disconnectMidStream(t, ts, "/transcode?codec=mpeg2&ladder=240p,576p&rung=240p&res=576p25&frames=5000&gop=2")
}

// TestLadderManifestAndRungs drives the uncached ladder path end to
// end: the bare ladder= request returns a JSON manifest whose per-rung
// URLs each serve a decodable stream at the rung's geometry.
func TestLadderManifestAndRungs(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, MaxConcurrent: 2, MaxFrames: 100})
	resp, body := get(t, ts.URL+"/transcode?codec=mpeg2&res=576p25&frames=3&ladder=240p,576p")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("manifest Content-Type = %q", ct)
	}
	var man ladderManifestJSON
	if err := json.Unmarshal(body, &man); err != nil {
		t.Fatalf("manifest: %v (%s)", err, body)
	}
	if man.Mezzanine != "720x576" || len(man.Rungs) != 2 {
		t.Fatalf("manifest %+v, want 720x576 mezzanine and 2 rungs", man)
	}
	for _, rung := range man.Rungs {
		resp, body := get(t, ts.URL+rung.URL)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rung %s status %d: %s", rung.Name, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-HDVB-Rung"); got != rung.Name {
			t.Fatalf("rung %s X-HDVB-Rung = %q", rung.Name, got)
		}
		hdr, pkts, err := hdvideobench.ReadStream(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("rung %s stream: %v", rung.Name, err)
		}
		if hdr.Width != rung.Width || hdr.Height != rung.Height {
			t.Fatalf("rung %s decodes as %dx%d, want %dx%d",
				rung.Name, hdr.Width, hdr.Height, rung.Width, rung.Height)
		}
		dec, err := hdvideobench.NewDecoder(hdr, false)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := hdvideobench.DecodePackets(dec, pkts)
		if err != nil {
			t.Fatalf("rung %s decode: %v", rung.Name, err)
		}
		if len(frames) != 3 {
			t.Fatalf("rung %s decoded %d frames, want 3", rung.Name, len(frames))
		}
	}
}

// TestLadderOneRungBelowMezzanine: a one-rung ladder smaller than its
// mezzanine has no seeded rung, and its one rung still codes downscaled
// frames, uncached and through the cache alike.
func TestLadderOneRungBelowMezzanine(t *testing.T) {
	_, plain := testServer(t, Config{Workers: 2, MaxConcurrent: 2, MaxFrames: 100})
	_, cached := testServer(t, cachedServerConfig(t))
	for _, ts := range []*httptest.Server{plain, cached} {
		resp, body := get(t, ts.URL+"/transcode?codec=mpeg2&res=576p25&frames=3&ladder=240p&rung=240p")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		hdr, pkts, err := hdvideobench.ReadStream(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := hdvideobench.ResolutionByName("240p"); hdr.Width != want.Width || hdr.Height != want.Height || len(pkts) != 3 {
			t.Fatalf("rung is %dx%d with %d packets, want %dx%d with 3", hdr.Width, hdr.Height, len(pkts), want.Width, want.Height)
		}
	}
}

// TestLadderRungCacheSharing pins the per-rung cache economics: the
// first rung request runs EncodeLadder once and commits every rung, so
// the sibling rung and the repeat request are hits with zero further
// ladder encodes, byte-identical to the cold responses.
func TestLadderRungCacheSharing(t *testing.T) {
	s, ts := testServer(t, cachedServerConfig(t))
	ladders := countLadders(s)
	base := ts.URL + "/transcode?codec=mpeg2&res=576p25&frames=3&ladder=240p,576p@800"

	cold, coldBody := get(t, base+"&rung=240p")
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", cold.StatusCode, coldBody)
	}
	if got := cold.Header.Get("X-HDVB-Cache"); got != "miss" {
		t.Fatalf("cold X-HDVB-Cache = %q, want miss", got)
	}
	if n := ladders.Load(); n != 1 {
		t.Fatalf("cold rung ran %d ladder encodes, want 1", n)
	}

	sib, sibBody := get(t, base+"&rung=576p")
	if sib.StatusCode != http.StatusOK {
		t.Fatalf("sibling status %d: %s", sib.StatusCode, sibBody)
	}
	if got := sib.Header.Get("X-HDVB-Cache"); got != "hit" {
		t.Fatalf("sibling X-HDVB-Cache = %q, want hit (committed by the first rung's fill)", got)
	}
	hdr, _, err := hdvideobench.ReadStream(bytes.NewReader(sibBody))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Width != 720 || hdr.Height != 576 {
		t.Fatalf("sibling rung geometry %dx%d, want 720x576", hdr.Width, hdr.Height)
	}

	warm, warmBody := get(t, base+"&rung=240p")
	if got := warm.Header.Get("X-HDVB-Cache"); got != "hit" {
		t.Fatalf("warm X-HDVB-Cache = %q, want hit", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("cached rung bytes differ from the cold response")
	}
	if n := ladders.Load(); n != 1 {
		t.Fatalf("three rung requests ran %d ladder encodes, want 1", n)
	}

	// Both entries carry the GOP index of their bytes, the sibling's too.
	p, err := s.parseTranscode(httptest.NewRequest("GET", base+"&rung=240p", nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range [][]byte{coldBody, sibBody} {
		ent, ok := s.cache.Get(p.rungKey(i))
		if !ok {
			t.Fatalf("rung %d has no cache entry", i)
		}
		want := []container.GOPIndexEntry{{Offset: 20, Frame: 0}} // 3 frames, gop 8: one GOP
		if ent.Index.Size != int64(len(body)) || !slices.Equal(ent.Index.Entries, want) {
			t.Errorf("rung %d: index %+v, want %d bytes with GOPs %v", i, ent.Index, len(body), want)
		}
		ent.Close()
	}
}

// TestLadderRungIndex: index=1 on a rung is served from the rung's cache
// entry. The miss runs the ladder pass and fills every rung, so the
// sibling's index is a hit, and each index equals the closed GOPs a
// container.GOPTracker finds walking that rung's bytes.
func TestLadderRungIndex(t *testing.T) {
	_, ts := testServer(t, cachedServerConfig(t))
	base := ts.URL + "/transcode?codec=mpeg2&res=576p25&frames=8&gop=4&ladder=240p,576p"
	for _, rung := range []string{"240p", "576p"} {
		url := base + "&rung=" + rung
		resp, idxBody := get(t, url+"&index=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rung %s index: status %d: %s", rung, resp.StatusCode, idxBody)
		}
		var idx indexJSON
		if err := json.Unmarshal(idxBody, &idx); err != nil {
			t.Fatalf("rung %s index: %v\n%s", rung, err, idxBody)
		}
		_, body := get(t, url)
		sr, err := container.NewStreamReader(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var gops container.GOPTracker
		want := []indexGOPJSON{}
		for {
			off := sr.BytesRead()
			p, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("rung %s: %v", rung, err)
			}
			if gops.Opens(p) {
				want = append(want, indexGOPJSON{Offset: off, Frame: p.DisplayIndex})
			}
		}
		if idx.Size != int64(len(body)) || !slices.Equal(idx.GOPs, want) || len(want) != 2 {
			t.Errorf("rung %s: index %s, want %d bytes with GOPs %v", rung, idxBody, len(body), want)
		}
	}
}

// TestSingleflightColdFill proves the coalescing of concurrent cold
// fills: two simultaneous identical requests run exactly one encode —
// the leader streams its encode, the follower blocks on the flight and
// serves the committed entry — and the shared serve is byte-identical
// and counted on hdvserve_singleflight_shared_total.
func TestSingleflightColdFill(t *testing.T) {
	s, ts := testServer(t, cachedServerConfig(t))
	encodes := countEncodes(s)
	started := make(chan struct{})
	proceed := make(chan struct{})
	inner := s.encode
	s.encode = func(w io.Writer, c hdvideobench.Codec, opts hdvideobench.EncoderOptions,
		frames int, next func() (*hdvideobench.Frame, error)) (hdvideobench.StreamStats, error) {
		close(started)
		<-proceed
		return inner(w, c, opts, frames, next)
	}
	url := ts.URL + "/transcode?codec=mpeg2&width=96&height=80&frames=6&gop=3"

	type result struct {
		cache string
		body  []byte
	}
	results := make([]result, 2)
	var wg sync.WaitGroup
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := get(t, url)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
			}
			results[i] = result{cache: resp.Header.Get("X-HDVB-Cache"), body: body}
		}()
	}
	launch(0)
	<-started // the leader is inside its (gated) encode
	launch(1)
	// Wait until the follower's request has entered the handler, then
	// give it a beat to reach the flight wait before ungating the leader.
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, metricsText(t, ts), `hdvserve_requests_total{endpoint="transcode",method="GET"}`) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second request never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	close(proceed)
	wg.Wait()

	if n := encodes.Load(); n != 1 {
		t.Fatalf("two concurrent requests ran %d encodes, want 1", n)
	}
	if !bytes.Equal(results[0].body, results[1].body) {
		t.Fatal("leader and follower bodies differ")
	}
	states := []string{results[0].cache, results[1].cache}
	if !((states[0] == "miss" && states[1] == "shared") || (states[0] == "shared" && states[1] == "miss")) {
		t.Fatalf("cache states %v, want one miss and one shared", states)
	}
	if got := metricValue(t, metricsText(t, ts), "hdvserve_singleflight_shared_total"); got != 1 {
		t.Fatalf("hdvserve_singleflight_shared_total = %d, want 1", got)
	}
}

// metricsText fetches the /metrics exposition.
func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	_, body := get(t, ts.URL+"/metrics")
	return string(body)
}
