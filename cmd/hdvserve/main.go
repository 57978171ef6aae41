// Command hdvserve is the HTTP front end of the streaming subsystem: it
// encodes benchmark sequences on the fly (GET /transcode), re-encodes
// uploaded HDVB streams (POST /transcode), and serves repeat traffic
// from a disk-backed LRU cache of coded GOP streams so identical
// requests are I/O-bound instead of CPU-bound — the serving-tier
// workload the ROADMAP's north star asks for on top of the codec core.
// The service itself lives in internal/serve so the SLO harness
// (cmd/hdvslo) and the httptest suites can run it in-process; this
// command only parses flags and owns the listener lifecycle.
//
// Start the server and request a stream:
//
//	hdvserve -addr :8080 -cache-dir /var/cache/hdvserve
//	curl -s 'http://localhost:8080/transcode?codec=h264&seq=blue_sky&width=1280&height=720' > blue_sky.hdvb
//	curl -s --data-binary @blue_sky.hdvb 'http://localhost:8080/transcode?codec=mpeg2' > blue_sky.m2.hdvb
//	vcodec -decode -i blue_sky.hdvb -o blue_sky.yuv
//
// # GET /transcode — generate and stream a coded sequence
//
// Query parameters:
//
//	codec    target codec: mpeg2, mpeg4, h264 (default h264)
//	seq      source sequence: blue_sky, pedestrian_area, riverbed,
//	         rush_hour, sport_pan, scene_cut, film_grain (default blue_sky)
//	res      named resolution (576p25, 720p25, 1088p25, 2160p25, plus
//	         aliases like 1080p and 4k); sets width and height, which
//	         explicit width=/height= still override
//	width    frame width, multiple of 16 (default 1280)
//	height   frame height, multiple of 16 (default 720)
//	frames   frames to encode, 1..-max-frames (default 250)
//	q        quantizer, MPEG scale 1..31 (default 5)
//	kbps     target bitrate in kbit/s, 0..1000000 (default 0 = constant
//	         q); rate control then only seeds from q
//	gop      closed-GOP length in frames, 1..255 (default 8; the chunk
//	         unit of the streaming encoder, the cache's fill unit, and
//	         the granularity of the seek index)
//	slices   macroblock-row slices per frame, 1..255 (default 1),
//	         clamped to the request's worker budget
//	workers  encoder goroutines for this request, clamped to -workers
//	wavefront  code macroblock rows as a wavefront (strconv.ParseBool
//	         syntax); a scheduling knob only — the bytes are identical
//	simd     use the SWAR kernel set (strconv.ParseBool syntax;
//	         default false — garbage values are 400s, not false)
//	vlc      H.264 only: VLC entropy instead of CABAC (same syntax)
//	index    with caching enabled: return the entry's GOP index as JSON
//	         ({"size":N,"gops":[{"offset":O,"frame":F},...]}) instead
//	         of the stream — the seek table for Range requests
//	ladder   rendition ladder over the request's geometry (the
//	         mezzanine): comma-separated named resolutions, each with an
//	         optional @kbps (e.g. 240p,576p@800; a bare kbps= is the
//	         default per rung). Without rung= the response is a JSON
//	         manifest listing each rung's geometry and URL. Ladder
//	         requests allow at most 250 frames and no index
//	rung     with ladder: stream this rung, a resolution in the ladder.
//	         A cold rung runs one ladder encode that caches every rung,
//	         so its siblings are hits; the response carries X-HDVB-Rung
//
// Cold requests stream with chunked transfer, one coded packet per
// flush, while a tee populates the cache; repeat requests are served
// straight from disk, byte-identical to the cold response (the entry IS
// the cold byte stream), with Content-Length, Accept-Ranges and an
// X-HDVB-Cache: hit header.
//
// # Range and seek
//
// Cached entries carry a GOP index: the byte offset of every closed
// GOP's first packet. Because nothing references across a closed-GOP
// boundary, a client that fetches the index can start mid-sequence with
// a standard HTTP Range request for a GOP-aligned span (the stream
// header plus any indexed suffix decodes cleanly). Byte ranges are
// served exactly as requested (206 Partial Content via the standard
// library); the index is what makes GOP-aligned offsets discoverable.
// A Range or index request that misses the cache encodes the entry
// first, then serves from it; with caching disabled, Range is ignored
// (full 200) and index requests are 400s.
//
// # POST /transcode — re-encode an uploaded HDVB stream
//
// The request body is an HDVB container (any of the three codecs); the
// response streams its transcode to the target codec. Query parameters
// codec, q, kbps, gop, slices, workers, wavefront, simd and vlc apply as
// for GET;
// width/height default to the input's dimensions. Uploads are capped at
// -max-upload bytes. Transcodes are not cached (the key space is the
// upload's content, not a small parameter tuple).
//
// # Operations
//
// GET /metrics exposes Prometheus text metrics: request counts, cache
// hits/misses/evictions/bytes, active and completed streams, bytes
// served, cumulative encode seconds, rate-limit rejections, and latency
// histograms labeled by {endpoint, codec, res, cache} plus the encode
// pipeline's chunk/queue/gate series (see the README's Observability
// section for the full catalogue). GET /healthz reports readiness and
// current load as JSON.
//
// Every /transcode response carries an X-Request-ID (propagated from
// the request or generated) and a Server-Timing header; cold chunked
// streams add a Server-Timing trailer with the encode phases. Logs are
// structured (log/slog, text): stream completions at info, per-request
// summaries at debug (-v), failures at warn, each line keyed by the
// request id.
//
// -debug-addr starts a second listener (bind it to loopback) with the
// private diagnostics: /debug/pprof/* for CPU/heap/goroutine profiling
// and /debug/requests, a JSON ring of the last 64 completed requests
// with per-phase timings. Neither is ever served on the public -addr
// listener.
//
// Per-client (peer IP) token-bucket rate limiting is enabled with
// -rate-limit requests/second and -rate-burst; excess requests get 429
// + Retry-After. A semaphore caps concurrent *encoding* requests
// (-max-concurrent) — cache hits bypass it, since serving off disk
// costs no encoder — and excess cold requests get 503 + Retry-After. A
// dropped client aborts its encode promptly, and SIGINT/SIGTERM drain
// in-flight streams before exit (-shutdown-timeout). Stream headers
// (Content-Type, X-HDVB-*) are set at the first body byte, so failures
// before any output produce clean, headerless error statuses.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hdvideobench/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		debugAddr   = flag.String("debug-addr", "", "listen address for /debug/pprof/* and /debug/requests (empty = off; keep it loopback)")
		verbose     = flag.Bool("v", false, "log per-request debug lines (request id, status, bytes, phases)")
		workers     = flag.Int("workers", runtime.NumCPU(), "per-request worker-goroutine budget")
		window      = flag.Int("window", 0, "per-request chunk window (0 = 2x workers)")
		maxConc     = flag.Int("max-concurrent", 4, "max concurrent encoding requests (excess get 503; cache hits bypass)")
		maxFrames   = flag.Int("max-frames", 5000, "max frames a single request may ask for")
		maxUpload   = flag.Int64("max-upload", 1<<30, "max POST /transcode upload bytes")
		cacheDir    = flag.String("cache-dir", "", "disk cache directory for coded GOP streams (empty = caching off)")
		cacheBytes  = flag.Int64("cache-bytes", 1<<30, "cache byte budget before LRU eviction (<=0 = unlimited)")
		rateLimit   = flag.Float64("rate-limit", 0, "per-client requests/second on /transcode (0 = off)")
		rateBurst   = flag.Int("rate-burst", 4, "per-client burst on top of -rate-limit")
		shutdownSec = flag.Int("shutdown-timeout", 30, "seconds to drain in-flight streams on SIGINT/SIGTERM")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	srv, err := serve.New(serve.Config{
		Workers:       *workers,
		Window:        *window,
		MaxConcurrent: *maxConc,
		MaxFrames:     *maxFrames,
		MaxUpload:     *maxUpload,
		CacheDir:      *cacheDir,
		CacheBytes:    *cacheBytes,
		RateLimit:     *rateLimit,
		RateBurst:     *rateBurst,
		Logger:        logger,
	})
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Routes()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", *workers, "window", *window,
			"max_concurrent", *maxConc, "cache", *cacheDir, "rate", *rateLimit)
		done <- httpSrv.ListenAndServe()
	}()
	if *debugAddr != "" {
		// The debug mux never joins the public handler: a separate
		// listener is what lets operators firewall it to loopback.
		debugSrv := &http.Server{Addr: *debugAddr, Handler: srv.DebugRoutes()}
		go func() {
			logger.Info("debug listener", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener failed", "err", err)
			}
		}()
		defer debugSrv.Close()
	}

	select {
	case err := <-done:
		logger.Error("server failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		logger.Info("shutting down, draining in-flight streams")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*shutdownSec)*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("shutdown", "err", err)
		}
	}
}
