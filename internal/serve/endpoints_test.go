package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hdvideobench"
	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Routes())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestTranscodeEndToEnd requests a stream for every codec and decodes
// the body with the streaming decoder: the served container must be
// complete, well formed, and match the sequence it claims to carry.
func TestTranscodeEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, MaxConcurrent: 2, MaxFrames: 100})
	const w, h, frames, gop = 96, 80, 8, 4

	for _, codec := range []string{"mpeg2", "mpeg4", "h264"} {
		t.Run(codec, func(t *testing.T) {
			url := fmt.Sprintf("%s/transcode?codec=%s&seq=rush_hour&width=%d&height=%d&frames=%d&gop=%d",
				ts.URL, codec, w, h, frames, gop)
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-hdvideobench" {
				t.Fatalf("Content-Type = %q", ct)
			}

			want, err := hdvideobench.ParseCodec(codec)
			if err != nil {
				t.Fatal(err)
			}
			inputs := hdvideobench.NewSequence(hdvideobench.RushHour, w, h).Generate(frames)
			count := 0
			hdr, _, err := hdvideobench.DecodeStream(resp.Body, false, 2, 0, func(f *hdvideobench.Frame) error {
				if f.PTS != count {
					return fmt.Errorf("frame %d: PTS %d", count, f.PTS)
				}
				if p := hdvideobench.PSNR(inputs[count], f); p < 20 {
					return fmt.Errorf("frame %d: PSNR %.2f dB", count, p)
				}
				count++
				return nil
			})
			if err != nil {
				t.Fatalf("decoding served stream: %v", err)
			}
			if hdr.Width != w || hdr.Height != h {
				t.Fatalf("served %dx%d, want %dx%d", hdr.Width, hdr.Height, w, h)
			}
			if hdr.Frames != frames {
				t.Fatalf("served header declares %d frames, want %d (truncation detection)", hdr.Frames, frames)
			}
			if got, _ := hdvideobench.ParseCodec(hdr.Codec.String()); got != want {
				t.Fatalf("served codec %v, want %v", hdr.Codec, want)
			}
			if count != frames {
				t.Fatalf("decoded %d frames, want %d", count, frames)
			}
		})
	}
}

// TestTranscodeBadParams checks every malformed query is rejected with
// 400 before any bytes hit the wire.
func TestTranscodeBadParams(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, MaxConcurrent: 2, MaxFrames: 100})
	cases := []struct{ name, query string }{
		{"unknown codec", "codec=vp9&width=96&height=80&frames=2"},
		{"unknown sequence", "seq=big_buck_bunny&width=96&height=80&frames=2"},
		{"width not multiple of 16", "width=100&height=80&frames=2"},
		{"height not a number", "width=96&height=eighty&frames=2"},
		{"zero frames", "width=96&height=80&frames=0"},
		{"frames over cap", "width=96&height=80&frames=101"},
		{"quantizer out of range", "width=96&height=80&frames=2&q=32"},
		{"zero gop", "width=96&height=80&frames=2&gop=0"},
		{"gop over fallback threshold", "width=96&height=80&frames=2&gop=256"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + "/transcode?" + c.query)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestTranscodeCapacity503 checks admission control: with the semaphore
// full the handler answers 503 + Retry-After immediately, and serves
// again once capacity frees up.
func TestTranscodeCapacity503(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, MaxConcurrent: 1, MaxFrames: 100})
	s.sem <- struct{}{} // occupy the only slot

	resp, err := http.Get(ts.URL + "/transcode?width=96&height=80&frames=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	<-s.sem // free the slot
	resp, err = http.Get(ts.URL + "/transcode?width=96&height=80&frames=2&gop=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after capacity freed %d, want 200", resp.StatusCode)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
}

// TestClientDisconnectMidStream starts a long stream, drops the
// connection after the first bytes, and checks the handler aborts the
// encode and releases its capacity slot so the next request succeeds.
func TestClientDisconnectMidStream(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, MaxConcurrent: 1, MaxFrames: 5000})
	disconnectMidStream(t, ts, "/transcode?width=96&height=80&frames=5000&gop=2")
}

// disconnectMidStream requests path on a one-slot server, drops the
// client after the first 64 bytes, and waits up to 10 s for the slot to
// serve a short request again.
func disconnectMidStream(t *testing.T, ts *httptest.Server, path string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a little of the stream to make sure the encode is underway,
	// then drop the client.
	if _, err := io.ReadFull(resp.Body, make([]byte, 64)); err != nil {
		t.Fatalf("reading stream head: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The only capacity slot must come back once the handler notices;
	// poll with a fresh short request until it does.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/transcode?width=96&height=80&frames=2&gop=2")
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, cerr := io.Copy(&body, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && cerr == nil {
			if body.Len() == 0 {
				t.Fatal("recovered request served an empty stream")
			}
			return // slot released, service healthy again
		}
		if time.Now().After(deadline) {
			t.Fatalf("capacity slot never released after disconnect (last status %d)", resp.StatusCode)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestHealthz checks the readiness endpoint shape.
func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxConcurrent: 3, MaxFrames: 10})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"status":"ok"`)) {
		t.Fatalf("healthz %d: %s", resp.StatusCode, body)
	}
}

// TestServedStreamTruncationDetectable checks the declared frame count
// does its job: a served container cut at a packet boundary must fail
// the client's decode with io.ErrUnexpectedEOF instead of passing as a
// complete (shorter) stream.
func TestServedStreamTruncationDetectable(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxConcurrent: 1, MaxFrames: 100})
	resp, err := http.Get(ts.URL + "/transcode?codec=mpeg2&width=96&height=80&frames=6&gop=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// Cut the body right before the last packet's header: the remaining
	// bytes are a structurally clean prefix ending on a packet boundary.
	sr, err := container.NewStreamReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sr.Next(); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	cut := body[:sr.BytesRead()]

	_, _, err = hdvideobench.DecodeStream(bytes.NewReader(cut), false, 1, 0, func(*hdvideobench.Frame) error {
		return nil
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("decoding truncated served stream: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestWorkersParamClamped checks an over-budget workers value is served
// with the budget rather than rejected, so clients need not know the
// replica's CPU count.
func TestWorkersParamClamped(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, MaxConcurrent: 1, MaxFrames: 100})
	resp, err := http.Get(ts.URL + "/transcode?width=96&height=80&frames=2&gop=2&workers=64")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (clamped)", resp.StatusCode)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
}

// TestSlicesParamServedAndClamped requests sliced streams: a slices=
// value within the worker budget must be honored in every frame's slice
// table, a value above the budget must be clamped to it (not rejected),
// out-of-range values are 400s, and the sliced stream stays decodable
// end to end.
func TestSlicesParamServedAndClamped(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, MaxConcurrent: 1, MaxFrames: 100})
	const w, h, frames = 96, 80, 3

	fetch := func(query string) (hdvideobench.StreamHeader, []hdvideobench.Packet) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/transcode?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		hdr, pkts, err := hdvideobench.ReadStream(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return hdr, pkts
	}
	sliceCount := func(p hdvideobench.Packet) int {
		t.Helper()
		spans, _, err := codec.ParseSliceTable(p.Payload[1:], h/16)
		if err != nil {
			t.Fatal(err)
		}
		return len(spans)
	}

	base := fmt.Sprintf("width=%d&height=%d&frames=%d&gop=2", w, h, frames)
	hdr, pkts := fetch(base + "&slices=2")
	for i, p := range pkts {
		if got := sliceCount(p); got != 2 {
			t.Fatalf("packet %d: %d slices, want 2", i, got)
		}
	}
	dec, err := hdvideobench.NewDecoder(hdr, false)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := hdvideobench.DecodePackets(dec, pkts)
	if err != nil {
		t.Fatalf("decoding sliced stream: %v", err)
	}
	if len(decoded) != frames {
		t.Fatalf("decoded %d frames, want %d", len(decoded), frames)
	}

	// Over-budget slices clamp to the worker budget (2), like workers=.
	_, pkts = fetch(base + "&slices=64&workers=64")
	for i, p := range pkts {
		if got := sliceCount(p); got != 2 {
			t.Fatalf("clamped packet %d: %d slices, want 2", i, got)
		}
	}

	for _, bad := range []string{"&slices=0", "&slices=256", "&slices=four"} {
		resp, err := http.Get(ts.URL + "/transcode?" + base + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}
