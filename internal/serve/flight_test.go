// Failure paths of the singleflight that coalesces concurrent cold
// fills: a leader whose encode dies with a follower parked on its
// flight, and a parked follower whose client goes away.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdvideobench"
	"hdvideobench/internal/obs"
)

// requestRecords polls /debug/requests until it holds want records (a
// record lands only once its handler, deferred calls included, has
// returned) and hands them back, newest first.
func requestRecords(t *testing.T, s *Server, want int) []obs.RequestRecord {
	t.Helper()
	var out struct {
		Requests []obs.RequestRecord `json:"requests"`
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		rr := httptest.NewRecorder()
		s.DebugRoutes().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/requests", nil))
		if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
			t.Fatalf("/debug/requests not JSON: %v", err)
		}
		if len(out.Requests) >= want {
			return out.Requests
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring has %d records, want %d", len(out.Requests), want)
		}
	}
}

// awaitFollower blocks until a second request for the key has missed the
// cache, then gives it a moment to park on the leader's flight.
func awaitFollower(t *testing.T, s *Server) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.cache.Stats().Misses < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the cache")
		}
	}
	time.Sleep(100 * time.Millisecond)
}

func hasPhase(rec obs.RequestRecord, name string) bool {
	for _, p := range rec.Phases {
		if p.Name == name {
			return true
		}
	}
	return false
}

// TestSingleflightLeaderFailsFollowerTakesOver: the leader's encode
// writes its first bytes and then fails while a follower is parked on
// the flight. The follower must become the next leader, run exactly one
// more encode, and serve the complete stream — byte-identical to the
// library's EncodeStream — as a miss, leaving no flight registered.
func TestSingleflightLeaderFailsFollowerTakesOver(t *testing.T) {
	s, ts := testServer(t, cachedServerConfig(t))
	started := make(chan struct{})
	proceed := make(chan struct{})
	ungate := sync.OnceFunc(func() { close(proceed) })
	defer ungate() // a failed check must not leave the leader parked
	inner := s.encode
	var failed atomic.Bool
	s.encode = func(w io.Writer, c hdvideobench.Codec, opts hdvideobench.EncoderOptions,
		frames int, next func() (*hdvideobench.Frame, error), indexed bool) (hdvideobench.StreamStats, hdvideobench.GOPIndex, error) {
		if !failed.CompareAndSwap(false, true) {
			return inner(w, c, opts, frames, next, indexed)
		}
		close(started)
		<-proceed
		n, _ := w.Write([]byte("HDVB"))
		return hdvideobench.StreamStats{Bytes: int64(n)}, hdvideobench.GOPIndex{}, errors.New("encoder died mid-stream")
	}
	encodes := countEncodes(s) // counts the failed run too
	const w, h, frames, gop = 96, 80, 6, 3
	url := ts.URL + "/transcode?codec=mpeg2&width=96&height=80&frames=6&gop=3"

	leaderDone := make(chan []byte)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			t.Error(err)
			leaderDone <- nil
			return
		}
		body, _ := io.ReadAll(resp.Body) // truncated: the error surfaces as a short body
		resp.Body.Close()
		leaderDone <- body
	}()
	<-started

	type result struct {
		resp *http.Response
		body []byte
	}
	followerDone := make(chan result)
	go func() {
		req, err := http.NewRequest("GET", url, nil)
		if err != nil {
			t.Error(err)
			followerDone <- result{}
			return
		}
		req.Header.Set("X-Request-ID", "follower")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			followerDone <- result{}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Error(err)
		}
		followerDone <- result{resp, body}
	}()
	awaitFollower(t, s)
	ungate()

	if body := <-leaderDone; len(body) != 4 {
		t.Errorf("failed leader delivered %d bytes, want its 4-byte head", len(body))
	}
	got := <-followerDone
	if got.resp == nil {
		t.FailNow()
	}
	if got.resp.StatusCode != http.StatusOK {
		t.Fatalf("follower status %d: %s", got.resp.StatusCode, got.body)
	}
	if c := got.resp.Header.Get("X-HDVB-Cache"); c != "miss" {
		t.Errorf("follower X-HDVB-Cache = %q, want miss (it encoded as the next leader)", c)
	}
	if n := encodes.Load(); n != 2 {
		t.Errorf("%d encodes, want 2 (the failed leader's and the follower's)", n)
	}

	var lib bytes.Buffer
	gen := hdvideobench.NewSequence(hdvideobench.BlueSky, w, h)
	i := 0
	if _, err := hdvideobench.EncodeStream(&lib, hdvideobench.MPEG2,
		hdvideobench.EncoderOptions{Width: w, Height: h, IntraPeriod: gop}, frames,
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
	if !bytes.Equal(got.body, lib.Bytes()) {
		t.Fatalf("follower served %d bytes differing from the library's %d", len(got.body), lib.Len())
	}

	for _, rec := range requestRecords(t, s, 2) {
		if rec.ID == "follower" && !hasPhase(rec, "flight") {
			t.Errorf("follower phases %v lack flight: it never parked on the leader", rec.Phases)
		}
	}
	s.flights.mu.Lock()
	left := len(s.flights.m)
	s.flights.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d flights still registered", left)
	}
	if resp, _ := get(t, url); resp.Header.Get("X-HDVB-Cache") != "hit" {
		t.Fatalf("after the takeover X-HDVB-Cache = %q, want hit", resp.Header.Get("X-HDVB-Cache"))
	}
}

// TestSingleflightFollowerDisconnect: a parked follower whose client
// goes away returns at once, without waiting for the leader; the leader
// still commits, and the next request is a hit.
func TestSingleflightFollowerDisconnect(t *testing.T) {
	s, ts := testServer(t, cachedServerConfig(t))
	encodes := countEncodes(s)
	started := make(chan struct{})
	proceed := make(chan struct{})
	ungate := sync.OnceFunc(func() { close(proceed) })
	defer ungate() // a failed check must not leave the leader parked
	inner := s.encode
	s.encode = func(w io.Writer, c hdvideobench.Codec, opts hdvideobench.EncoderOptions,
		frames int, next func() (*hdvideobench.Frame, error), indexed bool) (hdvideobench.StreamStats, hdvideobench.GOPIndex, error) {
		close(started)
		<-proceed
		return inner(w, c, opts, frames, next, indexed)
	}
	url := ts.URL + "/transcode?codec=mpeg2&width=96&height=80&frames=6&gop=3"

	leaderDone := make(chan int)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			t.Error(err)
			leaderDone <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		leaderDone <- resp.StatusCode
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	followerDone := make(chan error)
	go func() {
		req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
		if err != nil {
			followerDone <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		followerDone <- err
	}()
	awaitFollower(t, s)
	cancel()
	if err := <-followerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower request ended with %v, want context.Canceled", err)
	}
	// The leader is still gated, so a record in the ring can only be the
	// follower's: its handler returned without waiting for the flight.
	if rec := requestRecords(t, s, 1)[0]; !hasPhase(rec, "flight") || rec.Bytes != 0 {
		t.Fatalf("follower record %+v: want a flight phase and no body", rec)
	}

	ungate()
	if code := <-leaderDone; code != http.StatusOK {
		t.Fatalf("leader status %d", code)
	}
	requestRecords(t, s, 2) // the leader's commit precedes its record
	resp, _ := get(t, url)
	if c := resp.Header.Get("X-HDVB-Cache"); c != "hit" {
		t.Fatalf("after the leader's commit X-HDVB-Cache = %q, want hit", c)
	}
	if n := encodes.Load(); n != 1 {
		t.Fatalf("%d encodes, want 1", n)
	}
}
