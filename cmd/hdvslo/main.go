// Command hdvslo is the real-time SLO harness for the hdvserve serving
// tier: it spawns N concurrent synthetic viewers, each consuming the
// chunked HDVB stream against wall-clock frame deadlines (internal/slo's
// deadline model), and reports dropped/late frame counts, TTFB and
// per-frame latency quantiles, bytes served, and — in -search mode —
// the maximum concurrent stream count that sustains a deadline-miss
// budget. Each fixed-load point also scrapes the server's /metrics
// before and after the run, embedding the counter movement (encoder
// runs, cache hits/misses, bytes served) in the report — the
// server-side receipt that a warm point really served from cache.
//
//	hdvslo                          # in-process server, cold+warm at 24/30fps
//	hdvslo -fps 24,30,60 -clients 8
//	hdvslo -search -miss-budget 0.01 -max-streams 32
//	hdvslo -url http://host:8080    # against an already-running hdvserve
//	hdvslo -json slo.json           # machine-readable report
//	hdvslo -short -json -           # CI smoke: tiny run, JSON to stdout
//
// With no -url the harness starts the production handler (internal/serve,
// the same code cmd/hdvserve runs) in-process on a loopback listener
// with a throwaway cache directory, so results measure the serving
// stack rather than network distance. The "cold" path uses a fresh
// server — and in -search mode a fresh server per probe — so every
// stream pays the encode; the "warm" path primes the GOP cache with one
// greedy request first, so paced viewers measure the cache-serving path.
// Admission control is sized to the viewer count under test: capacity
// limits are meant to show up as missed deadlines, not 503s.
//
// Stream shape flags mirror hdvserve's /transcode parameters: -codec,
// -seq (incl. sport_pan/scene_cut), -res (up to 2160p25) or -w/-h,
// -frames, -q, -gop. Pacing flags: -fps (comma list), -readahead
// (frames buffered past the playhead, 0 = one second's worth),
// -drop-after (lateness at which a frame counts dropped, 0 = one
// display period).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hdvideobench"
	"hdvideobench/internal/serve"
	"hdvideobench/internal/slo"
)

func main() {
	var (
		baseURL    = flag.String("url", "", "base URL of a running hdvserve (default: start one in-process)")
		codecName  = flag.String("codec", "mpeg2", "codec: mpeg2, mpeg4, h264")
		seqName    = flag.String("seq", "blue_sky", "sequence: blue_sky, pedestrian_area, riverbed, rush_hour, sport_pan, scene_cut")
		resName    = flag.String("res", "", "resolution name (576p25 .. 2160p25; overrides -w/-h)")
		width      = flag.Int("w", 704, "stream width")
		height     = flag.Int("h", 576, "stream height")
		frames     = flag.Int("frames", 72, "frames per stream")
		q          = flag.Int("q", 5, "quantizer, MPEG scale 1..31")
		gop        = flag.Int("gop", 12, "intra period / closed-GOP length")
		fpsList    = flag.String("fps", "24,30", "comma-separated display rates to test")
		clients    = flag.Int("clients", 4, "concurrent viewers per run")
		pathList   = flag.String("paths", "cold,warm", "serving paths to exercise: cold, warm")
		readAhead  = flag.Int("readahead", 0, "viewer buffer in frames past the playhead (0 = one second's worth)")
		dropAfter  = flag.Duration("drop-after", 0, "lateness at which a frame counts dropped (0 = one display period)")
		search     = flag.Bool("search", false, "binary-search the max sustainable stream count per path x fps")
		missBudget = flag.Float64("miss-budget", 0.01, "with -search: tolerated (late+dropped)/frames fraction")
		maxStreams = flag.Int("max-streams", 32, "with -search: viewer-count ceiling")
		jsonPath   = flag.String("json", "", "write the machine-readable report to this file (\"-\" = stdout)")
		short      = flag.Bool("short", false, "CI smoke preset: tiny stream, one easy load point")
	)
	flag.Parse()

	codec, err := hdvideobench.ParseCodec(*codecName)
	if err != nil {
		fatalf("%v", err)
	}
	seq, err := hdvideobench.ParseSequence(*seqName)
	if err != nil {
		fatalf("%v", err)
	}
	w, h := *width, *height
	if *resName != "" {
		r, err := hdvideobench.ResolutionByName(*resName)
		if err != nil {
			fatalf("%v", err)
		}
		w, h = r.Width, r.Height
	}
	if err := hdvideobench.ValidateResolution(w, h); err != nil {
		fatalf("%v", err)
	}
	rates, err := parseFPSList(*fpsList)
	if err != nil {
		fatalf("%v", err)
	}
	paths := strings.Split(*pathList, ",")
	if *short {
		// The smoke preset must pass on a loaded 1-core CI box: a tiny
		// stream at a deliberately easy display rate, warm path only.
		w, h, *frames, *gop = 96, 80, 10, 5
		*clients, rates, paths, *search = 2, []int{10}, []string{"warm"}, false
	}
	for _, p := range paths {
		if p != "cold" && p != "warm" {
			fatalf("unknown path %q (want cold or warm)", p)
		}
	}

	report := slo.Report{
		Benchmark: "hdvslo",
		Description: "deadline-driven hdvserve load harness: paced viewers vs wall-clock frame deadlines; " +
			"cold = every stream encoded, warm = GOP cache primed",
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		Config: slo.ReportConfig{
			Codec: codec.String(), Seq: seq.String(),
			Width: w, Height: h, Frames: *frames, Q: *q, GOP: *gop,
			Clients: *clients, ReadAheadFrames: *readAhead,
			DropAfterMS: float64(*dropAfter) / float64(time.Millisecond),
		},
	}
	if *search {
		report.Config.MissBudget = *missBudget
	}

	// Admission control sized so capacity shows up as missed deadlines,
	// not 503s; the cap only protects against runaway flag values.
	maxConc := *clients
	if *search && *maxStreams > maxConc {
		maxConc = *maxStreams
	}
	lab := harness{
		remote:  *baseURL,
		maxConc: maxConc,
		query: url.Values{
			"codec":  {codec.String()},
			"seq":    {seq.String()},
			"width":  {strconv.Itoa(w)},
			"height": {strconv.Itoa(h)},
			"frames": {strconv.Itoa(*frames)},
			"q":      {strconv.Itoa(*q)},
			"gop":    {strconv.Itoa(*gop)},
		},
	}

	ctx := context.Background()
	// runPoint measures one load point; when withDelta is true it also
	// scrapes the server's /metrics around the run and returns the
	// counter movement (nil on scrape failure — the delta is garnish,
	// never a reason to fail the run).
	runPoint := func(path string, fps, n int, withDelta bool) (slo.RunResult, *slo.ServerDelta) {
		base, streamURL, shutdown := lab.prepare(ctx, path)
		defer shutdown()
		var before slo.ServerStats
		scraped := false
		if withDelta {
			// Scraped after prepare, so a warm path's priming request
			// does not pollute the delta.
			if s, err := slo.ScrapeServer(ctx, base); err == nil {
				before, scraped = s, true
			}
		}
		r := slo.Run(ctx, slo.RunConfig{
			URL: streamURL, Clients: n, FPS: fps,
			DropAfter: *dropAfter, ReadAhead: *readAhead,
		})
		var delta *slo.ServerDelta
		if scraped {
			if after, err := slo.ScrapeServer(ctx, base); err == nil {
				delta = after.Delta(before)
			}
		}
		return r, delta
	}

	for _, path := range paths {
		for _, fps := range rates {
			r, delta := runPoint(path, fps, *clients, true)
			report.Runs = append(report.Runs, slo.ReportRun{Path: path, RunResult: r, Server: delta})
			srv := ""
			if delta != nil {
				srv = fmt.Sprintf(", server: %d encodes %d hits %d misses", delta.Encodes, delta.CacheHits, delta.CacheMisses)
			}
			fmt.Fprintf(os.Stderr,
				"hdvslo: %-4s %2dfps %2d clients: %d/%d frames, %d late, %d dropped (miss %.2f%%), "+
					"ttfb p95 %.1fms, frame p99 %.1fms, %d cache hits, %.1fs%s\n",
				path, fps, r.Clients, r.Frames, r.Expected, r.Late, r.Dropped, 100*r.MissRate,
				r.TTFB.P95, r.FrameLatency.P99, r.CacheHits, r.WallSeconds, srv)
		}
	}
	if *search {
		for _, path := range paths {
			for _, fps := range rates {
				sr := slo.Search(func(n int) slo.RunResult {
					r, _ := runPoint(path, fps, n, false) // probes skip the scrape
					return r
				}, *missBudget, *maxStreams)
				report.Searches = append(report.Searches,
					slo.ReportSearch{Path: path, FPS: fps, SearchResult: sr})
				fmt.Fprintf(os.Stderr, "hdvslo: %-4s %2dfps search: max sustainable streams = %d (budget %.2f%%, %d probes)\n",
					path, fps, sr.MaxStreams, 100**missBudget, len(sr.Probes))
			}
		}
	}

	out, err := report.Marshal()
	if err != nil {
		fatalf("report: %v", err)
	}
	switch *jsonPath {
	case "":
	case "-":
		os.Stdout.Write(out)
	default:
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fatalf("report: %v", err)
		}
	}
}

// harness prepares the server side of one load point.
type harness struct {
	remote  string // non-empty: benchmark that URL instead of in-process servers
	maxConc int
	query   url.Values
}

// prepare returns the server base URL and stream URL for one run on the
// requested path, plus a shutdown func. In-process, "cold" gets a
// brand-new server and cache so every stream pays the encode, and
// "warm" gets a new server whose cache is primed by one greedy request.
// Against a remote server the cache is whatever the server already
// holds: "cold" runs as-is (first contact genuinely cold), "warm" still
// primes first.
func (l harness) prepare(ctx context.Context, path string) (base, streamURL string, shutdown func()) {
	base = l.remote
	shutdown = func() {}
	if l.remote == "" {
		base, shutdown = l.startServer()
	}
	streamURL = base + "/transcode?" + l.query.Encode()
	if path == "warm" {
		if err := prime(ctx, streamURL); err != nil {
			shutdown()
			fatalf("priming cache: %v", err)
		}
	}
	return base, streamURL, shutdown
}

// startServer brings up the production handler on a loopback listener
// with a throwaway cache directory.
func (l harness) startServer() (base string, shutdown func()) {
	dir, err := os.MkdirTemp("", "hdvslo-cache-")
	if err != nil {
		fatalf("cache dir: %v", err)
	}
	srv, err := serve.New(serve.Config{
		Workers:       runtime.NumCPU(),
		MaxConcurrent: l.maxConc,
		CacheDir:      dir,
	})
	if err != nil {
		os.RemoveAll(dir)
		fatalf("server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		fatalf("listen: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.Routes()}
	go httpSrv.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		httpSrv.Close()
		os.RemoveAll(dir)
	}
}

// prime fetches the stream once, greedily, so the server's GOP cache
// holds it before the paced viewers start.
func prime(ctx context.Context, streamURL string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, streamURL, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", streamURL, resp.Status)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func parseFPSList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -fps entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hdvslo: "+format+"\n", args...)
	os.Exit(1)
}
