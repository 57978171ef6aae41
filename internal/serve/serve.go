// Package serve implements the hdvserve HTTP transcoding service behind
// cmd/hdvserve, whose command documentation describes the HTTP API. It
// lives outside the command so the real-time SLO harness (internal/slo,
// cmd/hdvslo) and the httptest suites run the exact production handler
// in-process.
//
// A GET /transcode goes plan → source → writer:
//
//   - The query is parsed and validated once into a plan: what to encode,
//     the cache key of the entry that serves it, and the singleflight key
//     its production runs under (the key itself, or for a ladder rung the
//     whole ladder's run, which fills every rung).
//   - The source is the cache entry (a hit); else, while another request
//     produces the flight, that request's committed entry (shared); else
//     the request leads, takes an encoding slot and produces: a cold
//     stream teed into a cache fill, a fill it then serves from for Range
//     and index requests, or one EncodeLadder run committing every rung.
//   - Every response body goes through one writer, reqTrack: it counts
//     status, bytes and first-byte time, tees a cold stream into its fill,
//     and sets the stream headers (Content-Type, X-HDVB-*, Server-Timing)
//     as the first body byte leaves, so a failure before any output
//     answers with a clean status and none of them.
//
// POST /transcode runs hdvideobench.Transcode through the same writer.
// Every series lives on an internal/obs registry served at /metrics. Each
// /transcode request carries an X-Request-ID, reports its phases (cache,
// flight, gen, enc, commit, write) as Server-Timing — in a trailer on
// chunked cold streams, whose encode ends after the first byte — and
// lands in the /debug/requests ring of DebugRoutes, which cmd/hdvserve
// binds only to the separate -debug-addr listener.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"hdvideobench"
	"hdvideobench/internal/gopcache"
	"hdvideobench/internal/obs"
)

// StreamContentType is the media type of a served HDVB container.
const StreamContentType = "application/x-hdvideobench"

// requestRingSize is how many completed requests /debug/requests holds.
const requestRingSize = 64

// maxLadderFrames caps frames= on ladder requests: the ladder encoder
// is a batch path (every rung's packets are held in memory before the
// first response byte), unlike the constant-memory streaming paths.
const maxLadderFrames = 250

// Config carries the per-process limits.
type Config struct {
	Workers       int     // per-request worker budget
	Window        int     // per-request chunk window (0 = default)
	MaxConcurrent int     // concurrent encoding requests before 503
	MaxFrames     int     // cap on the frames= parameter
	MaxUpload     int64   // POST body cap in bytes
	CacheDir      string  // GOP cache directory ("" = caching off)
	CacheBytes    int64   // cache byte budget (<=0 = unlimited)
	RateLimit     float64 // per-client requests/second (0 = off)
	RateBurst     int     // per-client burst
	// Logger receives the server's leveled logs (request summaries at
	// debug, stream completions at info, failures at warn). nil discards
	// everything — the default keeps in-process harnesses and tests
	// quiet; cmd/hdvserve wires a real handler.
	Logger *slog.Logger
}

// encodeFunc is the sequence-encoding entry point, a Server field so the
// httptest suite can count or fail encoder constructions (a cache hit
// must never invoke it). indexed selects the GOP-index-building flavor;
// without a cache fill to feed there is no reason to pay its
// chunk-granular drain (serial mode would then hold a GOP of coded
// packets before the first response byte).
type encodeFunc func(w io.Writer, c hdvideobench.Codec, opts hdvideobench.EncoderOptions,
	frames int, next func() (*hdvideobench.Frame, error), indexed bool) (hdvideobench.StreamStats, hdvideobench.GOPIndex, error)

// defaultEncode backs encodeFunc with the library's streaming encoders.
func defaultEncode(w io.Writer, c hdvideobench.Codec, opts hdvideobench.EncoderOptions,
	frames int, next func() (*hdvideobench.Frame, error), indexed bool) (hdvideobench.StreamStats, hdvideobench.GOPIndex, error) {
	if !indexed {
		stats, err := hdvideobench.EncodeStream(w, c, opts, frames, next)
		return stats, hdvideobench.GOPIndex{}, err
	}
	return hdvideobench.EncodeStreamIndexed(w, c, opts, frames, next)
}

// ladderFunc is the rendition-ladder encoding entry point, a Server
// field for the same reason as encodeFunc: the httptest suite counts
// invocations to prove singleflight coalescing and cache hits.
type ladderFunc func(c hdvideobench.Codec, opts hdvideobench.EncoderOptions,
	frames []*hdvideobench.Frame, rungs []hdvideobench.LadderRung) ([]hdvideobench.LadderRendition, error)

// Server is the HTTP transcoding service; New constructs it, Routes
// hands back its handler, and the httptest suites (and cmd/hdvslo) can
// drive the exact production handler in-process.
type Server struct {
	cfg     Config
	sem     chan struct{}
	cache   *gopcache.Cache // nil = caching off
	limiter *rateLimiter    // nil = rate limiting off
	encode  encodeFunc
	ladder  ladderFunc
	flights flightGroup
	log     *slog.Logger

	reg    *obs.Registry
	reqLog *obs.RequestLog
	col    *obs.Collector // threaded into every encode via EncoderOptions
	m      serverMetrics
}

// serverMetrics holds the registry handles the handlers update. The
// names (and zero-label shapes) of the first block predate the registry
// and are pinned by the endpoint tests and any deployed scrape config —
// do not rename them.
type serverMetrics struct {
	getReqs     *obs.Counter // hdvserve_requests_total{endpoint="transcode",method="GET"}
	postReqs    *obs.Counter // hdvserve_requests_total{endpoint="transcode",method="POST"}
	active      *obs.Gauge
	served      *obs.Counter
	transcoded  *obs.Counter
	encodes     *obs.Counter
	encSeconds  *obs.Counter
	bytesServed *obs.Counter
	rateLimited *obs.Counter
	capacity503 *obs.Counter
	sfShared    *obs.Counter

	reqSeconds *obs.HistogramVec // {endpoint, codec, res, cache}
	ttfb       *obs.HistogramVec
	coldEnc    *obs.HistogramVec
	cacheFill  *obs.HistogramVec
}

func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	if cfg.MaxFrames < 1 {
		cfg.MaxFrames = 5000
	}
	if cfg.MaxUpload < 1 {
		cfg.MaxUpload = 1 << 30
	}
	s := &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		limiter: newRateLimiter(cfg.RateLimit, cfg.RateBurst),
		encode:  defaultEncode,
		ladder:  hdvideobench.EncodeLadder,
		log:     cfg.Logger,
		reg:     obs.NewRegistry(),
		reqLog:  obs.NewRequestLog(requestRingSize),
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if cfg.CacheDir != "" {
		cache, err := gopcache.Open(cfg.CacheDir, cfg.CacheBytes)
		if err != nil {
			return nil, err
		}
		s.cache = cache
	}
	s.registerMetrics()
	return s, nil
}

// registerMetrics builds every family. Registration order is exposition
// order; the pre-registry names come first, in their historical order.
func (s *Server) registerMetrics() {
	m := &s.m
	reqs := s.reg.Counter("hdvserve_requests_total", "Requests by endpoint and method.", "endpoint", "method")
	// Touch both series now so a fresh server exposes them at zero.
	m.getReqs = reqs.With("transcode", "GET")
	m.postReqs = reqs.With("transcode", "POST")
	m.active = s.reg.Gauge("hdvserve_active_requests", "Encoding requests in flight.").With()
	m.served = s.reg.Counter("hdvserve_streams_served_total", "Completed GET /transcode streams (cold or cached).").With()
	m.transcoded = s.reg.Counter("hdvserve_uploads_transcoded_total", "Completed POST /transcode transcodes.").With()
	m.encodes = s.reg.Counter("hdvserve_encodes_total", "Encoder pipeline runs (cache hits never add here).").With()
	m.encSeconds = s.reg.Counter("hdvserve_encode_seconds_total", "Cumulative wall-clock seconds spent encoding.").With()
	m.bytesServed = s.reg.Counter("hdvserve_bytes_served_total", "Response bytes written on /transcode.").With()
	m.rateLimited = s.reg.Counter("hdvserve_rate_limited_total", "Requests rejected by the per-client rate limit.").With()
	m.capacity503 = s.reg.Counter("hdvserve_capacity_rejections_total", "Requests rejected with 503 at the encode semaphore.").With()
	m.sfShared = s.reg.Counter("hdvserve_singleflight_shared_total", "Requests served from another request's concurrent cache fill instead of encoding.").With()
	if s.cache != nil {
		// The cache owns its counters; scrape-time funcs read them
		// instead of mirroring through writable cells that could skew.
		s.reg.CounterFunc("hdvserve_cache_hits_total", "GOP cache hits.",
			func() float64 { return float64(s.cache.Stats().Hits) })
		s.reg.CounterFunc("hdvserve_cache_misses_total", "GOP cache misses.",
			func() float64 { return float64(s.cache.Stats().Misses) })
		s.reg.CounterFunc("hdvserve_cache_evictions_total", "GOP cache entries evicted for budget.",
			func() float64 { return float64(s.cache.Stats().Evictions) })
		s.reg.GaugeFunc("hdvserve_cache_entries", "GOP cache entries on disk.",
			func() float64 { return float64(s.cache.Stats().Entries) })
		s.reg.GaugeFunc("hdvserve_cache_bytes", "GOP cache bytes on disk.",
			func() float64 { return float64(s.cache.Stats().Bytes) })
		s.reg.GaugeFunc("hdvserve_cache_budget_bytes", "GOP cache byte budget (0 = unlimited).",
			func() float64 { return float64(s.cache.Stats().Budget) })
	}

	// Request-shape latency histograms. res is "WxH" ("input" when a
	// POST copies the upload's dimensions); cache is hit/miss/none.
	// Labels are spelled out per site: metriclint checks each name
	// against the Prometheus grammar at the registration call.
	m.reqSeconds = s.reg.Histogram("hdvserve_request_seconds", "Request wall time by endpoint, codec, resolution and cache disposition.", nil, "endpoint", "codec", "res", "cache")
	m.ttfb = s.reg.Histogram("hdvserve_ttfb_seconds", "Time to first response body byte.", nil, "endpoint", "codec", "res", "cache")
	m.coldEnc = s.reg.Histogram("hdvserve_cold_encode_seconds", "Encode wall time of cache-miss and uncached requests.", nil, "endpoint", "codec", "res", "cache")
	m.cacheFill = s.reg.Histogram("hdvserve_cache_fill_seconds", "Wall time from encode start to cache commit for completed fills.", nil, "endpoint", "codec", "res", "cache")

	// Pipeline self-measurements, reported by every encode this server
	// runs through the Collector in EncoderOptions.
	gate := s.reg.Counter("hdvserve_gate_slices_total", "Slice jobs by dispatch mode (spawned onto a gate token vs inline).", "mode")
	s.col = &obs.Collector{
		ChunkEncode: s.reg.Histogram("hdvserve_chunk_encode_seconds", "Per closed-GOP chunk encode wall time inside the worker pool.", nil).With(),
		DrainStall:  s.reg.Histogram("hdvserve_drain_stall_seconds", "Reader wait on the ordered drain for the oldest in-flight chunk.", nil).With(),
		QueueDepth:  s.reg.Gauge("hdvserve_chunk_queue_depth", "Chunks submitted to the encode pool and not yet coded.").With(),
		GateWait:    s.reg.Histogram("hdvserve_gate_wait_seconds", "Slice-gate dispatcher wait for spawned slice stragglers.", nil).With(),
		GateSpawned: gate.With("spawned"),
		GateInline:  gate.With("inline"),
		WavefrontWait: s.reg.Histogram("hdvserve_wavefront_wait_seconds",
			"Parked waits of wavefront row coders on their top-right dependency.", nil).With(),
		FrontDepth: s.reg.Histogram("hdvserve_wavefront_front_depth",
			"Concurrent row coders per wavefront launch (1 = degenerate serial front).", nil).With(),
	}
}

func (s *Server) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /transcode", s.instrument("transcode", s.handleTranscode))
	mux.Handle("POST /transcode", s.instrument("transcode", s.handleTranscodePost))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// reqTrack is the one response writer of a /transcode request: it
// records status, bytes and first-byte time, carries the trace and the
// labels the middleware turns into histograms and a ring record, mirrors
// the body into a cache fill, and sets the stream headers.
type reqTrack struct {
	rw    http.ResponseWriter
	bytes *obs.Counter // global bytes-served total

	id        string
	start     time.Time
	trace     *obs.Trace
	status    int
	written   int64
	firstByte time.Time
	codec     string // "" until the request parses
	res       string
	cache     string // hit, miss, shared, or none

	// The stream headers writeHead sets: ctype is the body's
	// Content-Type, "" until the handler knows the body (and again once
	// set); frames 0 and rung "" leave their headers out.
	ctype  string
	frames int
	rung   string
	tee    *gopcache.Fill // nil = the body fills no cache entry
}

func (t *reqTrack) Header() http.Header { return t.rw.Header() }

func (t *reqTrack) WriteHeader(code int) {
	if t.status == 0 {
		t.status = code
	}
	t.rw.WriteHeader(code)
}

func (t *reqTrack) Write(p []byte) (int, error) {
	if t.status == 0 {
		t.writeHead()
		t.status = http.StatusOK
	}
	if t.firstByte.IsZero() {
		t.firstByte = time.Now()
	}
	n, err := t.rw.Write(p)
	t.written += int64(n)
	t.bytes.Add(float64(n))
	if t.tee != nil && n > 0 {
		// A failed fill keeps its error and Commit refuses it: caching
		// is an optimization, never a reason to fail the client's stream.
		t.tee.Write(p[:n])
	}
	return n, err
}

func (t *reqTrack) Flush() {
	if f, ok := t.rw.(http.Flusher); ok {
		f.Flush()
	}
}

// writeHead sets the stream headers of a successful body, once. Write
// calls it at the first byte of a body whose status nobody set, so an
// error status (http.Error sets it first) never carries X-HDVB-*
// headers; serveCached calls it before http.ServeContent, which would
// otherwise sniff the body for a Content-Type. Server-Timing holds the
// phases finished by then plus the cache disposition, which tells a warm
// hit from a cold miss before the miss's encode phases exist. Keys are
// spelled canonically: Header.Set copies any other spelling into a new
// string on every response.
func (t *reqTrack) writeHead() {
	if t.ctype == "" {
		return
	}
	h := t.rw.Header()
	h.Set("Content-Type", t.ctype)
	if t.ctype == StreamContentType {
		h.Set("X-Hdvb-Codec", t.codec)
		if t.frames > 0 {
			h.Set("X-Hdvb-Frames", strconv.Itoa(t.frames))
		}
		if t.rung != "" {
			h.Set("X-Hdvb-Rung", t.rung)
		}
	}
	if t.cache != "none" {
		h.Set("X-Hdvb-Cache", t.cache)
	}
	h.Set("Server-Timing", t.serverTiming())
	t.ctype = ""
}

// setStream records the parsed stream shape on the track's labels.
func (t *reqTrack) setStream(c hdvideobench.Codec, opts hdvideobench.EncoderOptions) {
	t.codec = c.String()
	if opts.Width > 0 && opts.Height > 0 {
		t.res = strconv.Itoa(opts.Width) + "x" + strconv.Itoa(opts.Height)
	} else {
		t.res = "input" // POST copying the upload's dimensions
	}
}

// serverTiming renders the completed phases plus the cache disposition
// as a Server-Timing value.
func (t *reqTrack) serverTiming() string {
	st := t.trace.ServerTiming()
	if t.cache == "none" {
		return st
	}
	if st != "" {
		st += ", "
	}
	return st + t.cache
}

// instrument wraps a /transcode handler with the per-client rate limit
// and the per-request observability: request-ID generation/propagation/
// echo, byte and latency accounting, the /debug/requests ring, and the
// debug log line.
func (s *Server) instrument(endpoint string, next func(*reqTrack, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id) // canonical spelling: no per-request copy
		t := &reqTrack{
			rw: w, bytes: s.m.bytesServed,
			id: id, start: time.Now(), trace: obs.NewTrace(), cache: "none",
		}
		if s.allow(t, r) {
			next(t, r)
		}
		if t.status == 0 {
			t.status = http.StatusOK // handler wrote nothing at all
		}
		dur := time.Since(t.start)
		s.m.reqSeconds.With(endpoint, t.codec, t.res, t.cache).Observe(dur.Seconds())
		if !t.firstByte.IsZero() {
			s.m.ttfb.With(endpoint, t.codec, t.res, t.cache).Observe(t.firstByte.Sub(t.start).Seconds())
		}
		s.reqLog.Add(obs.RequestRecord{
			ID: id, Time: obs.StartTime(t.start), Method: r.Method, Path: r.URL.RequestURI(),
			Status: t.status, Bytes: t.written, Cache: t.cache,
			DurationMS: float64(dur) / float64(time.Millisecond), Phases: t.trace.Phases(),
		})
		s.log.Debug("request done", "id", id, "method", r.Method, "uri", r.URL.RequestURI(),
			"status", t.status, "bytes", t.written, "cache", t.cache, "dur", dur.Round(time.Microsecond))
	})
}

// allow applies the per-client token bucket, keyed by peer IP, and
// answers 429 when the client's bucket is empty.
func (s *Server) allow(w http.ResponseWriter, r *http.Request) bool {
	if s.limiter == nil {
		return true
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	if s.limiter.allow(host, time.Now()) {
		return true
	}
	s.m.rateLimited.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(s.limiter.retryAfterSeconds()))
	http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
	return false
}

// intParam parses an integer query parameter with a default and bounds.
func intParam(q url.Values, name string, def, lo, hi int) (int, error) {
	vs, ok := q[name]
	if !ok || len(vs) == 0 || vs[0] == "" {
		return def, nil
	}
	v, err := strconv.Atoi(vs[0])
	if err != nil {
		return 0, fmt.Errorf("%s: not an integer: %q", name, vs[0])
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%s: %d out of range [%d,%d]", name, v, lo, hi)
	}
	return v, nil
}

// boolParam parses a boolean query parameter with strconv.ParseBool's
// strictness: absent/empty is false, garbage is an error — matching
// intParam, where a malformed value is a 400 rather than a silent
// default.
func boolParam(q url.Values, name string) (bool, error) {
	v := q.Get(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("%s: not a boolean: %q", name, v)
	}
	return b, nil
}

// flightGroup deduplicates concurrent cold fills of one cache key: the
// first request for a key becomes the leader and encodes; followers
// wait on the leader's done channel and then serve the entry its fill
// committed. A leader that aborts without committing closes the channel
// anyway, and followers race to become the next leader.
type flightGroup struct {
	mu sync.Mutex
	m  map[gopcache.Key]chan struct{} // guarded by mu
}

// begin registers the caller as leader for key (second return true) or
// hands back the in-flight leader's done channel.
func (g *flightGroup) begin(key gopcache.Key) (chan struct{}, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if ch, ok := g.m[key]; ok {
		return ch, false
	}
	if g.m == nil {
		g.m = make(map[gopcache.Key]chan struct{})
	}
	ch := make(chan struct{})
	g.m[key] = ch
	return ch, true
}

// finish releases the leadership for key and wakes every follower.
func (g *flightGroup) finish(key gopcache.Key) {
	g.mu.Lock()
	ch := g.m[key]
	delete(g.m, key)
	g.mu.Unlock()
	close(ch)
}

// plan is a validated GET /transcode query and the two cache keys it
// resolves to.
type plan struct {
	codec  hdvideobench.Codec
	seq    hdvideobench.Sequence
	frames int
	index  bool // serve the GOP index instead of the stream
	opts   hdvideobench.EncoderOptions

	// Ladder mode: ladder holds the validated rung list when the ladder=
	// parameter is present, rung the index of the rendition selected
	// with rung= (-1 = none: serve the JSON manifest), and ladderSpec
	// the canonical "name@kbps,..." form shared by the flight key, so
	// concurrent requests for different rungs of the same ladder
	// coalesce onto one EncodeLadder run.
	ladder     []hdvideobench.LadderRung
	rung       int
	ladderSpec string

	key    gopcache.Key // the cache entry that serves the request
	flight gopcache.Key // the singleflight key its production runs under
}

// cacheKey maps the request onto the GOP cache's key space: every field
// that shapes the coded bytes, and nothing else (workers and window are
// byte-identical by the pipeline's determinism guarantee).
func (p *plan) cacheKey() gopcache.Key {
	// Only H.264 has a selectable entropy coder; keying it for the other
	// codecs would give byte-identical streams two cache entries.
	entropy := ""
	if p.codec == hdvideobench.H264 {
		entropy = "cabac"
		if p.opts.Entropy == hdvideobench.EntropyVLC {
			entropy = "vlc"
		}
	}
	return gopcache.Key{
		Codec:   p.codec.String(),
		Seq:     p.seq.String(),
		Width:   p.opts.Width,
		Height:  p.opts.Height,
		Frames:  p.frames,
		Q:       p.opts.Q,
		GOP:     p.opts.IntraPeriod,
		Slices:  p.opts.Slices,
		Entropy: entropy,
		SIMD:    p.opts.SIMD,
		Kbps:    p.opts.Kbps,
	}
}

// rungKey maps one ladder rendition onto the cache key space: the base
// key's Width/Height stay the mezzanine's (the rung's bytes depend on
// the analysis rung encoded at that geometry), and the rung's own name
// and bitrate distinguish it. Sibling rungs deliberately do not appear:
// a rung's bytes depend only on the top rung's motion field, which the
// ladder composition cannot change.
func (p *plan) rungKey(i int) gopcache.Key {
	k := p.cacheKey()
	k.Rung = p.ladder[i].Name
	k.Kbps = p.ladder[i].Kbps
	return k
}

// ladderFlightKey is the singleflight key of the whole ladder run: one
// EncodeLadder call fills every rung's entry, so concurrent requests
// for any rung of the same ladder coalesce onto it.
func (p *plan) ladderFlightKey() gopcache.Key {
	k := p.cacheKey()
	k.Rung = "ladder:" + p.ladderSpec
	return k
}

// parseCoding parses the coding options shared by GET and POST. width
// and height of 0 mean "copy the input" (POST); GET overrides the
// defaults before calling.
func (s *Server) parseCoding(q url.Values, defWidth, defHeight int) (hdvideobench.Codec, hdvideobench.EncoderOptions, error) {
	var opts hdvideobench.EncoderOptions
	codecName := q.Get("codec")
	if codecName == "" {
		codecName = "h264"
	}
	c, err := hdvideobench.ParseCodec(codecName)
	if err != nil {
		return c, opts, err
	}

	width, err := intParam(q, "width", defWidth, 16, 4096)
	if err != nil {
		return c, opts, err
	}
	height, err := intParam(q, "height", defHeight, 16, 4096)
	if err != nil {
		return c, opts, err
	}
	if width != 0 && height != 0 {
		if err := hdvideobench.ValidateResolution(width, height); err != nil {
			return c, opts, err
		}
	} else if width%16 != 0 || height%16 != 0 {
		// POST may override just one dimension (the other copies the
		// input's), so each is validated on its own here.
		return c, opts, fmt.Errorf("width/height must be multiples of 16, got %dx%d", width, height)
	}
	qp, err := intParam(q, "q", 5, 1, 31)
	if err != nil {
		return c, opts, err
	}
	// kbps switches the stream to rate-targeted coding; q then only
	// seeds the controller (kbps takes precedence, q keeps its default
	// so the two parameters compose instead of conflicting).
	kbps, err := intParam(q, "kbps", 0, 0, 1_000_000)
	if err != nil {
		return c, opts, err
	}
	// The gop ceiling matches the streaming decoder's fallback
	// threshold, so every stream this server emits stays fully
	// GOP-parallel on the client's decode side.
	gop, err := intParam(q, "gop", 8, 1, 255)
	if err != nil {
		return c, opts, err
	}
	// workers clamps to the server's budget rather than rejecting, so
	// one client request works against any replica's CPU budget.
	workers, err := intParam(q, "workers", s.cfg.Workers, 1, 4096)
	if err != nil {
		return c, opts, err
	}
	workers = min(workers, s.cfg.Workers)
	// slices clamps to the request's worker budget: more slices than
	// workers would pay the compression cost without buying speedup.
	slices, err := intParam(q, "slices", 1, 1, 255)
	if err != nil {
		return c, opts, err
	}
	slices = min(slices, workers)
	simd, err := boolParam(q, "simd")
	if err != nil {
		return c, opts, err
	}
	vlc, err := boolParam(q, "vlc")
	if err != nil {
		return c, opts, err
	}
	// wavefront stays out of the cache key: like workers, it is a pure
	// scheduling knob — the coded bytes are identical on or off.
	wavefront, err := boolParam(q, "wavefront")
	if err != nil {
		return c, opts, err
	}

	opts = hdvideobench.EncoderOptions{
		Width: width, Height: height, Q: qp, Kbps: kbps,
		IntraPeriod: gop,
		Slices:      slices,
		Wavefront:   wavefront,
		Workers:     workers,
		Window:      s.cfg.Window,
		SIMD:        simd,
		Collector:   s.col, // pipeline series land on this server's registry
	}
	if vlc {
		opts.Entropy = hdvideobench.EntropyVLC
	}
	return c, opts, nil
}

func (s *Server) parseTranscode(r *http.Request) (plan, error) {
	q := r.URL.Query()
	var p plan
	var err error

	// res= names a benchmark resolution (576p25 ... 2160p25, plus
	// aliases like 1080p/4k); it sets the width/height defaults, which
	// explicit width=/height= parameters still override.
	defWidth, defHeight := 1280, 720
	if name := q.Get("res"); name != "" {
		res, err := hdvideobench.ResolutionByName(name)
		if err != nil {
			return p, err
		}
		defWidth, defHeight = res.Width, res.Height
	}
	if p.codec, p.opts, err = s.parseCoding(q, defWidth, defHeight); err != nil {
		return p, err
	}
	seqName := q.Get("seq")
	if seqName == "" {
		seqName = "blue_sky"
	}
	if p.seq, err = hdvideobench.ParseSequence(seqName); err != nil {
		return p, err
	}
	if p.frames, err = intParam(q, "frames", min(250, s.cfg.MaxFrames), 1, s.cfg.MaxFrames); err != nil {
		return p, err
	}
	if p.index, err = boolParam(q, "index"); err != nil {
		return p, err
	}
	p.rung = -1
	if spec := q.Get("ladder"); spec != "" {
		// The rung list validates against the request's mezzanine: unknown
		// names, duplicates, and rungs exceeding the mezzanine are 400s.
		p.ladder, err = hdvideobench.ParseLadder(spec, p.opts.Width, p.opts.Height)
		if err != nil {
			return p, err
		}
		parts := make([]string, len(p.ladder))
		for i := range p.ladder {
			lr := &p.ladder[i]
			// A bare kbps= is the default budget for rungs without their
			// own @kbps, mirroring hdvbench -ladder -kbps.
			if lr.Kbps == 0 {
				lr.Kbps = p.opts.Kbps
			}
			parts[i] = lr.Name
			if lr.Kbps > 0 {
				parts[i] += "@" + strconv.Itoa(lr.Kbps)
			}
		}
		p.ladderSpec = strings.Join(parts, ",")
		if p.index {
			return p, fmt.Errorf("index is not supported with ladder")
		}
		// Every rung is held in memory as packets before serving starts,
		// so the ladder path caps frames below the streaming paths' limit.
		if p.frames > maxLadderFrames {
			return p, fmt.Errorf("ladder is limited to %d frames, got %d", maxLadderFrames, p.frames)
		}
		if name := q.Get("rung"); name != "" {
			res, err := hdvideobench.ResolutionByName(name)
			if err != nil {
				return p, err
			}
			for i, lr := range p.ladder {
				if lr.Name == res.Name {
					p.rung = i
				}
			}
			if p.rung < 0 {
				return p, fmt.Errorf("rung %q is not in ladder %q", name, spec)
			}
		}
	} else if q.Get("rung") != "" {
		return p, fmt.Errorf("rung requires ladder")
	}
	if p.rung >= 0 {
		p.key, p.flight = p.rungKey(p.rung), p.ladderFlightKey()
	} else {
		p.key = p.cacheKey()
		p.flight = p.key
	}
	return p, nil
}

// acquire takes an encoding slot or answers 503: hand back pressure
// instead of queueing unbounded work — the client can retry against
// another replica.
func (s *Server) acquire(w http.ResponseWriter) bool {
	select {
	case s.sem <- struct{}{}:
		s.m.active.Add(1)
		return true
	default:
		s.m.capacity503.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "transcoder at capacity", http.StatusServiceUnavailable)
		return false
	}
}

func (s *Server) release() {
	s.m.active.Add(-1)
	<-s.sem
}

// encoded counts one finished encoder run on the request's labels.
func (s *Server) encoded(t *reqTrack, d time.Duration) {
	s.m.encodes.Inc()
	s.m.encSeconds.Add(d.Seconds())
	s.m.coldEnc.With("transcode", t.codec, t.res, t.cache).Observe(d.Seconds())
}

// frameFeed yields the request's generated frames, honoring the request
// context so a dropped client aborts the encode from the input side, and
// adds up the time it spends generating them.
type frameFeed struct {
	ctx       context.Context
	gen       *hdvideobench.SequenceGenerator
	frames, i int
	spent     time.Duration // read once the encode has returned
}

func (ff *frameFeed) next() (*hdvideobench.Frame, error) {
	if err := ff.ctx.Err(); err != nil {
		return nil, err
	}
	if ff.i >= ff.frames {
		return nil, io.EOF
	}
	t0 := time.Now()
	f := ff.gen.Frame(ff.i)
	ff.spent += time.Since(t0)
	ff.i++
	return f, nil
}

// encodeGenerated encodes the request's generated frames into w and
// records two phases on the request's trace: "enc", the wall time of the
// encode call, and "gen", the part of it the frame feed spent in the
// sequence generator ("enc" contains "gen": the encoder pulls its input).
func (s *Server) encodeGenerated(ctx context.Context, t *reqTrack, w io.Writer, p *plan, indexed bool) (hdvideobench.StreamStats, hdvideobench.GOPIndex, error) {
	feed := &frameFeed{ctx: ctx, gen: hdvideobench.NewSequence(p.seq, p.opts.Width, p.opts.Height), frames: p.frames}
	sp := t.trace.Start("enc")
	stats, idx, err := s.encode(w, p.codec, p.opts, p.frames, feed.next, indexed)
	d := sp.End()
	t.trace.Record("gen", feed.spent)
	if err == nil {
		s.encoded(t, d)
	}
	return stats, idx, err
}

// commit seals a fill under the "commit" phase. Fill time spans encode
// start through commit: the window during which a second request for
// the same key would find no entry.
func (s *Server) commit(t *reqTrack, fill *gopcache.Fill, idx hdvideobench.GOPIndex, start time.Time) (*gopcache.Entry, error) {
	sp := t.trace.Start("commit")
	ent, err := fill.Commit(idx)
	sp.End()
	if err == nil {
		s.m.cacheFill.With("transcode", t.codec, t.res, t.cache).Observe(time.Since(start).Seconds())
	}
	return ent, err
}

func (s *Server) handleTranscode(t *reqTrack, r *http.Request) {
	s.m.getReqs.Inc()
	p, err := s.parseTranscode(r)
	if err != nil {
		http.Error(t, err.Error(), http.StatusBadRequest)
		return
	}
	t.setStream(p.codec, p.opts)
	if p.index && s.cache == nil {
		http.Error(t, "index requires caching (-cache-dir)", http.StatusBadRequest)
		return
	}
	if len(p.ladder) > 0 && p.rung < 0 {
		s.writeLadderManifest(t, r, &p)
		return
	}
	t.ctype, t.frames = StreamContentType, p.frames
	if p.index {
		t.ctype = "application/json"
	}
	if p.rung >= 0 {
		lr := p.ladder[p.rung]
		t.res = strconv.Itoa(lr.Width) + "x" + strconv.Itoa(lr.Height)
		t.rung = lr.Name
	}

	if s.cache != nil {
		sp := t.trace.Start("cache")
		ent, ok := s.cache.Get(p.key)
		sp.End()
		if ok {
			t.cache = "hit"
			s.serveCached(t, r, &p, ent)
			return
		}
		t.cache = "miss"
		if ent, follower := s.waitFlight(t, r, &p); follower {
			if ent != nil {
				s.serveCached(t, r, &p, ent)
			}
			return
		}
		defer s.flights.finish(p.flight)
	}
	if !s.acquire(t) {
		return
	}
	defer s.release()

	switch {
	case p.rung >= 0:
		s.encodeLadder(t, r, &p)
	case s.cache != nil && (p.index || r.Header.Get("Range") != ""):
		s.fillThenServe(t, r, &p)
	default:
		s.streamCold(t, r, &p)
	}
}

// waitFlight applies singleflight to a cold fill. While another request
// produces p.flight it waits, then hands back the freshly cached entry
// for p.key with follower set; a nil entry then means the client
// vanished while waiting. follower false means the caller is now the
// leader and must s.flights.finish(p.flight) when done.
func (s *Server) waitFlight(t *reqTrack, r *http.Request, p *plan) (ent *gopcache.Entry, follower bool) {
	for {
		ch, leader := s.flights.begin(p.flight)
		if leader {
			return nil, false
		}
		sp := t.trace.Start("flight")
		select {
		case <-ch:
			sp.End()
		case <-r.Context().Done():
			sp.End()
			return nil, true
		}
		if ent, ok := s.cache.Get(p.key); ok {
			s.m.sfShared.Inc()
			t.cache = "shared"
			return ent, true
		}
		// The leader aborted without committing; race for leadership.
	}
}

// serveCached serves a request straight from an opened cache entry:
// the index as JSON, or the container bytes with standard Range
// support.
func (s *Server) serveCached(t *reqTrack, r *http.Request, p *plan, ent *gopcache.Entry) {
	defer ent.Close()
	t.writeHead()
	if p.index {
		writeIndexJSON(t, ent.Index)
		return
	}
	// ServeContent handles Range/If-Range/HEAD and sets Content-Length
	// and Accept-Ranges; the body is the exact byte stream a cold
	// encode produces, so hits are byte-identical to misses.
	sp := t.trace.Start("write")
	http.ServeContent(t, r, "", ent.ModTime, ent.Body())
	sp.End()
	s.m.served.Inc()
}

type indexJSON struct {
	Size int64          `json:"size"`
	GOPs []indexGOPJSON `json:"gops"`
}

type indexGOPJSON struct {
	Offset int64 `json:"offset"`
	Frame  int   `json:"frame"`
}

func writeIndexJSON(w io.Writer, idx hdvideobench.GOPIndex) {
	out := indexJSON{Size: idx.Size, GOPs: make([]indexGOPJSON, len(idx.Entries))}
	for i, e := range idx.Entries {
		out.GOPs[i] = indexGOPJSON{Offset: e.Offset, Frame: e.Frame}
	}
	json.NewEncoder(w).Encode(out)
}

// fillThenServe produces a Range or index miss: both need the complete
// entry, so the encode goes into the cache first and the requested span
// is served off the commit.
func (s *Server) fillThenServe(t *reqTrack, r *http.Request, p *plan) {
	fill, err := s.cache.NewFill(p.key)
	if err != nil {
		http.Error(t, "cache unavailable", http.StatusInternalServerError)
		return
	}
	start := time.Now()
	stats, idx, err := s.encodeGenerated(r.Context(), t, fill, p, true)
	if err != nil {
		fill.Abort()
		switch {
		case r.Context().Err() != nil:
			// Client gone; nobody is listening.
		case fill.Err() != nil:
			// The request was fine; the cache disk was not. A zero-byte
			// fill failure must not masquerade as a client error.
			http.Error(t, "cache write failed", http.StatusInternalServerError)
		case stats.Bytes == 0:
			http.Error(t, err.Error(), http.StatusBadRequest)
		default:
			http.Error(t, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	ent, err := s.commit(t, fill, idx, start)
	if err != nil {
		http.Error(t, "cache commit failed", http.StatusInternalServerError)
		return
	}
	s.serveCached(t, r, p, ent)
}

// streamCold encodes the request straight onto the wire with chunked
// transfer, teeing the bytes into a cache fill when caching is on.
func (s *Server) streamCold(t *reqTrack, r *http.Request, p *plan) {
	var fill *gopcache.Fill
	if s.cache != nil {
		// Cache trouble must never fail serving: no fill, no tee.
		fill, _ = s.cache.NewFill(p.key)
	}
	t.tee = fill
	start := time.Now()
	// The GOP index only exists to be committed with the fill; without a
	// tee the plain per-packet drain keeps first-byte latency at one
	// packet, not one GOP.
	stats, idx, err := s.encodeGenerated(r.Context(), t, t, p, fill != nil)
	t.tee = nil
	if fill != nil {
		if err != nil {
			fill.Abort()
		} else if ent, cerr := s.commit(t, fill, idx, start); cerr != nil {
			s.log.Warn("cache commit failed", "id", t.id, "err", cerr)
		} else {
			ent.Close() // already streamed
		}
	}
	if !s.settle(t, r, err, stats.Frames) {
		return
	}
	s.m.served.Inc()
	s.log.Info("stream served",
		"id", t.id, "codec", t.codec, "seq", p.seq.String(),
		"res", t.res, "frames", p.frames, "workers", p.opts.Workers,
		"bytes", stats.Bytes, "dur", time.Since(start).Round(time.Millisecond))
}

// settle ends a response its encoder wrote straight to the client (a
// cold GET stream, a POST transcode) and reports whether it succeeded.
// Success puts the phases into a Server-Timing trailer: the chunked body
// has no Content-Length, so the encode phases, which end after the
// first byte, can still reach the client. A failure with nothing on the
// wire yet becomes a 400 without stream headers; one mid-stream leaves
// the truncated body as the only signal.
func (s *Server) settle(t *reqTrack, r *http.Request, err error, frames int) bool {
	switch {
	case err == nil:
		t.Header().Set(http.TrailerPrefix+"Server-Timing", t.serverTiming())
		return true
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || r.Context().Err() != nil:
		s.log.Debug("client gone", "id", t.id, "method", r.Method, "frames", frames, "bytes", t.written)
	case t.status == 0:
		http.Error(t, err.Error(), http.StatusBadRequest)
	default:
		s.log.Warn("stream failed mid-flight", "id", t.id, "method", r.Method, "frames", frames, "err", err)
	}
	return false
}

// ladderManifestJSON is the GET /transcode?ladder= response when no
// rung is selected: the validated rendition list, each with the URL
// that serves it.
type ladderManifestJSON struct {
	Codec     string           `json:"codec"`
	Seq       string           `json:"seq"`
	Frames    int              `json:"frames"`
	Mezzanine string           `json:"mezzanine"`
	Rungs     []ladderRungJSON `json:"rungs"`
}

type ladderRungJSON struct {
	Name   string `json:"name"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	Kbps   int    `json:"kbps,omitempty"`
	URL    string `json:"url"`
}

func (s *Server) writeLadderManifest(w http.ResponseWriter, r *http.Request, p *plan) {
	out := ladderManifestJSON{
		Codec:     p.codec.String(),
		Seq:       p.seq.String(),
		Frames:    p.frames,
		Mezzanine: strconv.Itoa(p.opts.Width) + "x" + strconv.Itoa(p.opts.Height),
	}
	u := *r.URL
	for _, lr := range p.ladder {
		q := u.Query()
		q.Set("rung", lr.Name)
		u.RawQuery = q.Encode()
		out.Rungs = append(out.Rungs, ladderRungJSON{
			Name: lr.Name, Width: lr.Width, Height: lr.Height, Kbps: lr.Kbps,
			URL: u.RequestURI(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// encodeLadder produces a ladder rung: one EncodeLadder pass whose every
// rung is committed, so the siblings of the first rung asked for are
// hits for the rest of the playlist. Cache trouble downgrades to serving
// the requested rung from memory, never to failing the request.
func (s *Server) encodeLadder(t *reqTrack, r *http.Request, p *plan) {
	start := time.Now()
	sp := t.trace.Start("gen")
	frames := make([]*hdvideobench.Frame, p.frames)
	gen := hdvideobench.NewSequence(p.seq, p.opts.Width, p.opts.Height)
	for i := range frames {
		frames[i] = gen.Frame(i)
	}
	sp.End()
	sp = t.trace.Start("enc")
	rends, err := s.ladder(p.codec, p.opts, frames, p.ladder)
	d := sp.End()
	if err != nil {
		if r.Context().Err() == nil {
			http.Error(t, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	s.encoded(t, d)

	var ent *gopcache.Entry
	if s.cache != nil {
		sp = t.trace.Start("commit")
		for i, rend := range rends {
			fill, err := s.cache.NewFill(p.rungKey(i))
			if err != nil {
				continue
			}
			if err := hdvideobench.WriteStream(fill, rend.Header, rend.Packets); err != nil {
				fill.Abort()
				continue
			}
			e, err := fill.Commit(hdvideobench.GOPIndex{Size: fill.Written()})
			switch {
			case err != nil:
			case i == p.rung:
				ent = e
			default:
				e.Close()
			}
		}
		sp.End()
		s.m.cacheFill.With("transcode", t.codec, t.res, t.cache).Observe(time.Since(start).Seconds())
	}
	if ent != nil {
		s.serveCached(t, r, p, ent)
	} else {
		sp = t.trace.Start("write")
		err := hdvideobench.WriteStream(t, rends[p.rung].Header, rends[p.rung].Packets)
		sp.End()
		if err != nil {
			s.log.Warn("ladder stream failed mid-flight", "id", t.id, "rung", t.rung, "err", err)
			return
		}
		s.m.served.Inc()
	}
	s.log.Info("ladder rung served",
		"id", t.id, "codec", t.codec, "seq", p.seq.String(),
		"ladder", p.ladderSpec, "rung", t.rung, "frames", p.frames,
		"dur", time.Since(start).Round(time.Millisecond))
}

func (s *Server) handleTranscodePost(t *reqTrack, r *http.Request) {
	s.m.postReqs.Inc()
	codec, opts, err := s.parseCoding(r.URL.Query(), 0, 0) // width/height 0: copy the input's
	if err != nil {
		http.Error(t, err.Error(), http.StatusBadRequest)
		return
	}
	t.setStream(codec, opts)
	t.ctype = StreamContentType
	if !s.acquire(t) {
		return
	}
	defer s.release()

	body := http.MaxBytesReader(t, r.Body, s.cfg.MaxUpload)
	start := time.Now()
	sp := t.trace.Start("enc")
	// A bad upload (wrong magic, unsupported version, bad config) fails
	// before the output container opens, so settle answers it with a 400.
	stats, err := hdvideobench.Transcode(body, t, codec, opts)
	d := sp.End()
	if !s.settle(t, r, err, stats.Frames) {
		return
	}
	s.m.transcoded.Inc()
	s.encoded(t, d)
	s.log.Info("upload transcoded",
		"id", t.id, "in", stats.In.String(), "out", stats.Out.String(),
		"frames", stats.Frames, "bytes_in", stats.BytesIn, "bytes_out", stats.BytesOut,
		"dur", time.Since(start).Round(time.Millisecond))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Status   string `json:"status"`
		Active   int64  `json:"active"`
		Capacity int    `json:"capacity"`
		Served   int64  `json:"served"`
	}{
		Status:   "ok",
		Active:   int64(s.m.active.Value()),
		Capacity: s.cfg.MaxConcurrent,
		Served:   int64(s.m.served.Value()),
	})
}
