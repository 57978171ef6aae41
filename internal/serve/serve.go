// Package serve implements the hdvserve HTTP transcoding service: the
// GET/POST /transcode handlers, the disk-backed GOP cache integration,
// per-client rate limiting, admission control and /metrics. It lives
// outside cmd/hdvserve so the real-time SLO harness (internal/slo,
// cmd/hdvslo) and the httptest suites can run the exact production
// handler in-process; cmd/hdvserve is a thin flag-parsing front end.
// See cmd/hdvserve's command documentation for the HTTP API.
//
// Observability (PR 7): every series lives on an internal/obs registry —
// the original flat counters keep their exact names, joined by labeled
// latency histograms ({endpoint, codec, res, cache}) and the pipeline's
// chunk/queue/gate series fed through an obs.Collector threaded into
// EncoderOptions. Each /transcode request carries an X-Request-ID
// (propagated from the client or generated), emits a Server-Timing
// header (and, on cold chunked streams, a Server-Timing trailer with
// the encode phases that only finish after the first byte), and lands
// in a last-N ring served at /debug/requests on the DebugRoutes mux —
// which, with /debug/pprof/*, binds only to the separate -debug-addr
// listener, never the public one.
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
	mux.Handle("GET /transcode", s.instrument("transcode", s.limit(s.handleTranscode)))
	mux.Handle("POST /transcode", s.instrument("transcode", s.limit(s.handleTranscodePost)))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// reqTrack is the per-request instrumentation carrier: a ResponseWriter
// wrapper recording status, bytes, and first-byte time, plus the trace
// and label fields the middleware turns into histograms and a ring
// record when the handler returns. Handlers reach it via track(w).
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
	cache     string // hit, miss, or none
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
		t.status = http.StatusOK
	}
	if t.firstByte.IsZero() {
		t.firstByte = time.Now()
	}
	n, err := t.rw.Write(p)
	t.written += int64(n)
	t.bytes.Add(float64(n))
	return n, err
}

func (t *reqTrack) Flush() {
	if f, ok := t.rw.(http.Flusher); ok {
		f.Flush()
	}
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
// as a Server-Timing value — the disposition marker is what makes a
// warm hit and a cold miss distinguishable at header time, before the
// cold path's encode phases have finished.
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

// track returns the request's instrumentation carrier. Handlers only
// run wrapped by instrument, so the assertion holds; the fallback keeps
// a directly-invoked handler (subtests poking internals) functional.
func track(w http.ResponseWriter) *reqTrack {
	if t, ok := w.(*reqTrack); ok {
		return t
	}
	return &reqTrack{rw: w, bytes: nil, start: time.Now(), trace: obs.NewTrace(), cache: "none"}
}

// instrument wraps a /transcode handler with the per-request
// observability: request-ID generation/propagation/echo, byte and
// latency accounting, the /debug/requests ring, and the debug log line.
func (s *Server) instrument(endpoint string, next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		t := &reqTrack{
			rw: w, bytes: s.m.bytesServed,
			id: id, start: time.Now(), trace: obs.NewTrace(), cache: "none",
		}
		next(t, r)
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

// limit applies the per-client token bucket, keyed by peer IP.
func (s *Server) limit(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.limiter != nil {
			host, _, err := net.SplitHostPort(r.RemoteAddr)
			if err != nil {
				host = r.RemoteAddr
			}
			if !s.limiter.allow(host, time.Now()) {
				s.m.rateLimited.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(s.limiter.retryAfterSeconds()))
				http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
				return
			}
		}
		next(w, r)
	}
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

// transcodeRequest is a validated /transcode query.
type transcodeRequest struct {
	codec  hdvideobench.Codec
	seq    hdvideobench.Sequence
	frames int
	index  bool // GET: serve the GOP index instead of the stream
	opts   hdvideobench.EncoderOptions

	// Ladder mode (GET only): ladder holds the validated rung list when
	// the ladder= parameter is present, rung the index of the rendition
	// selected with rung= (-1 = none: serve the JSON manifest), and
	// ladderSpec the canonical "name@kbps,..." form shared by the flight
	// key, so concurrent requests for different rungs of the same ladder
	// coalesce onto one EncodeLadder run.
	ladder     []hdvideobench.LadderRung
	rung       int
	ladderSpec string
}

// cacheKey maps the request onto the GOP cache's key space: every field
// that shapes the coded bytes, and nothing else (workers and window are
// byte-identical by the pipeline's determinism guarantee).
func (req transcodeRequest) cacheKey() gopcache.Key {
	// Only H.264 has a selectable entropy coder; keying it for the other
	// codecs would give byte-identical streams two cache entries.
	entropy := ""
	if req.codec == hdvideobench.H264 {
		entropy = "cabac"
		if req.opts.Entropy == hdvideobench.EntropyVLC {
			entropy = "vlc"
		}
	}
	return gopcache.Key{
		Codec:   req.codec.String(),
		Seq:     req.seq.String(),
		Width:   req.opts.Width,
		Height:  req.opts.Height,
		Frames:  req.frames,
		Q:       req.opts.Q,
		GOP:     req.opts.IntraPeriod,
		Slices:  req.opts.Slices,
		Entropy: entropy,
		SIMD:    req.opts.SIMD,
		Kbps:    req.opts.Kbps,
	}
}

// rungKey maps one ladder rendition onto the cache key space: the base
// key's Width/Height stay the mezzanine's (the rung's bytes depend on
// the analysis rung encoded at that geometry), and the rung's own name
// and bitrate distinguish it. Sibling rungs deliberately do not appear:
// a rung's bytes depend only on the top rung's motion field, which the
// ladder composition cannot change.
func (req transcodeRequest) rungKey(i int) gopcache.Key {
	k := req.cacheKey()
	k.Rung = req.ladder[i].Name
	k.Kbps = req.ladder[i].Kbps
	return k
}

// ladderFlightKey is the singleflight key of the whole ladder run: one
// EncodeLadder call fills every rung's entry, so concurrent requests
// for any rung of the same ladder coalesce onto it.
func (req transcodeRequest) ladderFlightKey() gopcache.Key {
	k := req.cacheKey()
	k.Rung = "ladder:" + req.ladderSpec
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

func (s *Server) parseTranscode(r *http.Request) (transcodeRequest, error) {
	q := r.URL.Query()
	var req transcodeRequest
	var err error

	// res= names a benchmark resolution (576p25 ... 2160p25, plus
	// aliases like 1080p/4k); it sets the width/height defaults, which
	// explicit width=/height= parameters still override.
	defWidth, defHeight := 1280, 720
	if name := q.Get("res"); name != "" {
		res, err := hdvideobench.ResolutionByName(name)
		if err != nil {
			return req, err
		}
		defWidth, defHeight = res.Width, res.Height
	}
	if req.codec, req.opts, err = s.parseCoding(q, defWidth, defHeight); err != nil {
		return req, err
	}
	seqName := q.Get("seq")
	if seqName == "" {
		seqName = "blue_sky"
	}
	if req.seq, err = hdvideobench.ParseSequence(seqName); err != nil {
		return req, err
	}
	if req.frames, err = intParam(q, "frames", min(250, s.cfg.MaxFrames), 1, s.cfg.MaxFrames); err != nil {
		return req, err
	}
	if req.index, err = boolParam(q, "index"); err != nil {
		return req, err
	}
	req.rung = -1
	if spec := q.Get("ladder"); spec != "" {
		// The rung list validates against the request's mezzanine: unknown
		// names, duplicates, and rungs exceeding the mezzanine are 400s.
		req.ladder, err = hdvideobench.ParseLadder(spec, req.opts.Width, req.opts.Height)
		if err != nil {
			return req, err
		}
		// A bare kbps= is the default budget for rungs without their own
		// @kbps, mirroring hdvbench -ladder -kbps.
		if req.opts.Kbps > 0 {
			for i := range req.ladder {
				if req.ladder[i].Kbps == 0 {
					req.ladder[i].Kbps = req.opts.Kbps
				}
			}
		}
		var parts []string
		for _, lr := range req.ladder {
			p := lr.Name
			if lr.Kbps > 0 {
				p += "@" + strconv.Itoa(lr.Kbps)
			}
			parts = append(parts, p)
		}
		req.ladderSpec = strings.Join(parts, ",")
		if req.index {
			return req, fmt.Errorf("index is not supported with ladder")
		}
		// Every rung is held in memory as packets before serving starts,
		// so the ladder path caps frames below the streaming paths' limit.
		if req.frames > maxLadderFrames {
			return req, fmt.Errorf("ladder is limited to %d frames, got %d", maxLadderFrames, req.frames)
		}
		if name := q.Get("rung"); name != "" {
			res, err := hdvideobench.ResolutionByName(name)
			if err != nil {
				return req, err
			}
			for i, lr := range req.ladder {
				if lr.Name == res.Name {
					req.rung = i
				}
			}
			if req.rung < 0 {
				return req, fmt.Errorf("rung %q is not in ladder %q", name, spec)
			}
		}
	} else if q.Get("rung") != "" {
		return req, fmt.Errorf("rung requires ladder")
	}
	return req, nil
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

// frameFeed yields the request's generated frames, honoring the request
// context so a dropped client aborts the encode from the input side, and
// adds up the time it spends generating them.
type frameFeed struct {
	ctx       context.Context
	gen       *hdvideobench.SequenceGenerator
	frames, i int
	spent     time.Duration // read once the encode has returned
}

func newFrameFeed(ctx context.Context, req transcodeRequest) *frameFeed {
	gen := hdvideobench.NewSequence(req.seq, req.opts.Width, req.opts.Height)
	return &frameFeed{ctx: ctx, gen: gen, frames: req.frames}
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
func (s *Server) encodeGenerated(ctx context.Context, t *reqTrack, w io.Writer, req transcodeRequest, indexed bool) (hdvideobench.StreamStats, hdvideobench.GOPIndex, time.Duration, error) {
	feed := newFrameFeed(ctx, req)
	sp := t.trace.Start("enc")
	stats, idx, err := s.encode(w, req.codec, req.opts, req.frames, feed.next, indexed)
	encDur := sp.End()
	t.trace.Record("gen", feed.spent)
	return stats, idx, encDur, err
}

func (s *Server) handleTranscode(w http.ResponseWriter, r *http.Request) {
	s.m.getReqs.Inc()
	t := track(w)
	req, err := s.parseTranscode(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	t.setStream(req.codec, req.opts)
	if req.index && s.cache == nil {
		http.Error(w, "index requires caching (-cache-dir)", http.StatusBadRequest)
		return
	}
	if len(req.ladder) > 0 {
		if req.rung < 0 {
			s.writeLadderManifest(w, r, req)
			return
		}
		s.handleLadderRung(w, r, req)
		return
	}

	var key gopcache.Key
	if s.cache != nil {
		key = req.cacheKey()
		sp := t.trace.Start("cache")
		ent, ok := s.cache.Get(key)
		sp.End()
		if ok {
			t.cache = "hit"
			s.serveCached(w, r, req, ent, "hit")
			return
		}
		t.cache = "miss"
		if ent, ok := s.waitFlight(w, r, key, key); ok {
			if ent != nil {
				s.serveCached(w, r, req, ent, "shared")
			}
			return
		}
		defer s.flights.finish(key)
	}

	if !s.acquire(w) {
		return
	}
	defer s.release()

	// Seek and index need the complete entry: encode it into the cache
	// first, then serve the requested span off disk.
	if s.cache != nil && (req.index || r.Header.Get("Range") != "") {
		ent, ok := s.fillCache(w, r, req, key)
		if !ok {
			return
		}
		s.serveCached(w, r, req, ent, "miss")
		return
	}
	s.streamCold(w, r, req, key)
}

// serveCached serves a request straight from an opened cache entry:
// the index as JSON, or the container bytes with standard Range
// support. state names how the entry got here ("hit" or "miss").
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, req transcodeRequest, ent *gopcache.Entry, state string) {
	defer ent.Close()
	t := track(w)
	if req.index {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-HDVB-Cache", state)
		w.Header().Set("Server-Timing", t.serverTiming())
		writeIndexJSON(w, ent.Index)
		return
	}
	h := w.Header()
	h.Set("Content-Type", StreamContentType)
	h.Set("X-HDVB-Codec", req.codec.String())
	h.Set("X-HDVB-Frames", strconv.Itoa(req.frames))
	h.Set("X-HDVB-Cache", state)
	// The phases completed so far: the cache lookup on a hit, plus the
	// full encode/fill on a ranged or indexed miss.
	h.Set("Server-Timing", t.serverTiming())
	// ServeContent handles Range/If-Range/HEAD and sets Content-Length
	// and Accept-Ranges; the body is the exact byte stream a cold
	// encode produces, so hits are byte-identical to misses.
	sp := t.trace.Start("write")
	http.ServeContent(w, r, "", ent.ModTime, ent.Body())
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

// fillCache encodes the request into the cache without streaming to the
// client (the ranged/indexed miss path). On failure it writes the error
// response and reports !ok.
func (s *Server) fillCache(w http.ResponseWriter, r *http.Request, req transcodeRequest, key gopcache.Key) (*gopcache.Entry, bool) {
	t := track(w)
	fill, err := s.cache.NewFill(key)
	if err != nil {
		http.Error(w, "cache unavailable", http.StatusInternalServerError)
		return nil, false
	}
	ctx := r.Context()
	start := time.Now()
	fw := &errTrackWriter{w: fill}
	stats, idx, encDur, err := s.encodeGenerated(ctx, t, fw, req, true)
	if err != nil {
		fill.Abort()
		if ctx.Err() != nil {
			return nil, false // client gone; nobody is listening
		}
		switch {
		case fw.err != nil:
			// The request was fine; the cache disk was not. A zero-byte
			// fill failure must not masquerade as a client error.
			http.Error(w, "cache write failed", http.StatusInternalServerError)
		case stats.Bytes == 0:
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return nil, false
	}
	s.m.encodes.Inc()
	s.m.encSeconds.Add(encDur.Seconds())
	s.m.coldEnc.With("transcode", t.codec, t.res, t.cache).Observe(encDur.Seconds())
	csp := t.trace.Start("commit")
	ent, err := fill.Commit(idx)
	csp.End()
	if err != nil {
		http.Error(w, "cache commit failed", http.StatusInternalServerError)
		return nil, false
	}
	// Fill time spans encode start through commit: the window during
	// which a second request for the same key would find no entry.
	s.m.cacheFill.With("transcode", t.codec, t.res, t.cache).Observe(time.Since(start).Seconds())
	return ent, true
}

// streamCold encodes and streams the request with chunked transfer,
// teeing the byte stream into a cache fill when caching is on. Stream
// headers are deferred to the first body byte so pre-stream failures
// (nothing on the wire yet) produce clean, headerless error statuses.
func (s *Server) streamCold(w http.ResponseWriter, r *http.Request, req transcodeRequest, key gopcache.Key) {
	t := track(w)
	hw := &deferredHeaderWriter{rw: w, set: func(h http.Header) {
		h.Set("Content-Type", StreamContentType)
		h.Set("X-HDVB-Codec", req.codec.String())
		h.Set("X-HDVB-Frames", strconv.Itoa(req.frames))
		if s.cache != nil {
			h.Set("X-HDVB-Cache", "miss")
		}
		// Only the phases finished before the first byte (the cache
		// lookup) can go in the header; the encode phases arrive in the
		// Server-Timing trailer once the chunked stream completes.
		h.Set("Server-Timing", t.serverTiming())
	}}
	var sink flushWriter = hw
	var tee *cacheTeeWriter
	if s.cache != nil {
		// Cache trouble must never fail serving: no fill, no tee.
		if fill, err := s.cache.NewFill(key); err == nil {
			tee = &cacheTeeWriter{dst: hw, fill: fill}
			sink = tee
		}
	}

	ctx := r.Context()
	start := time.Now()
	// The GOP index only exists to be committed with the fill; without a
	// tee the plain per-packet drain keeps first-byte latency at one
	// packet, not one GOP.
	stats, idx, encDur, err := s.encodeGenerated(ctx, t, sink, req, tee != nil)
	abortTee := func() {
		if tee != nil {
			tee.fill.Abort()
		}
	}
	switch {
	case err == nil:
		s.m.served.Inc()
		s.m.encodes.Inc()
		s.m.encSeconds.Add(encDur.Seconds())
		s.m.coldEnc.With("transcode", t.codec, t.res, t.cache).Observe(encDur.Seconds())
		if tee != nil {
			if tee.teeErr != nil {
				tee.fill.Abort()
			} else {
				csp := t.trace.Start("commit")
				ent, err := tee.fill.Commit(idx)
				csp.End()
				if err != nil {
					s.log.Warn("cache commit failed", "id", t.id, "err", err)
				} else {
					ent.Close() // already streamed; only fillCache serves off the commit
					s.m.cacheFill.With("transcode", t.codec, t.res, t.cache).Observe(time.Since(start).Seconds())
				}
			}
		}
		if hw.wrote {
			// The response is chunked (no Content-Length), so the encode
			// phases can still reach the client as a trailer.
			w.Header().Set(http.TrailerPrefix+"Server-Timing", t.serverTiming())
		}
		s.log.Info("stream served",
			"id", t.id, "codec", req.codec.String(), "seq", req.seq.String(),
			"res", t.res, "frames", req.frames, "workers", req.opts.Workers,
			"bytes", stats.Bytes, "dur", time.Since(start).Round(time.Millisecond))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil:
		abortTee()
		s.log.Debug("client gone", "id", t.id, "frames", stats.Frames, "bytes", stats.Bytes)
	case !hw.wrote:
		// Nothing on the wire yet: the error can still become a status,
		// and since the stream headers are deferred, the 400 carries
		// none of them.
		abortTee()
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		// Mid-stream failure; the truncated body is the only signal.
		abortTee()
		s.log.Warn("stream failed mid-flight", "id", t.id, "frames", stats.Frames, "err", err)
	}
}

// waitFlight applies singleflight to a cold fill. If another request is
// already encoding flightKey, it blocks until that fill commits and
// hands back the freshly cached entry for cacheKey; (nil, true) means
// the client vanished while waiting. (nil, false) means the caller is
// now the leader and must s.flights.finish(flightKey) when done.
func (s *Server) waitFlight(w http.ResponseWriter, r *http.Request, flightKey, cacheKey gopcache.Key) (*gopcache.Entry, bool) {
	t := track(w)
	for {
		ch, leader := s.flights.begin(flightKey)
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
		if ent, ok := s.cache.Get(cacheKey); ok {
			s.m.sfShared.Inc()
			t.cache = "shared"
			return ent, true
		}
		// The leader aborted without committing; race for leadership.
	}
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

func (s *Server) writeLadderManifest(w http.ResponseWriter, r *http.Request, req transcodeRequest) {
	out := ladderManifestJSON{
		Codec:     req.codec.String(),
		Seq:       req.seq.String(),
		Frames:    req.frames,
		Mezzanine: strconv.Itoa(req.opts.Width) + "x" + strconv.Itoa(req.opts.Height),
	}
	u := *r.URL
	for _, lr := range req.ladder {
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

// handleLadderRung serves one rendition of a ladder request. Cache hits
// serve the rung's entry directly; a miss runs one EncodeLadder pass —
// coalesced across concurrent requests for any rung of the same ladder
// by the flight group — and commits every rung it produced, so the
// sibling rungs of the first request are hits for the rest of the
// playlist.
func (s *Server) handleLadderRung(w http.ResponseWriter, r *http.Request, req transcodeRequest) {
	t := track(w)
	rung := req.ladder[req.rung]
	t.res = strconv.Itoa(rung.Width) + "x" + strconv.Itoa(rung.Height)
	w.Header().Set("X-HDVB-Rung", rung.Name)

	var key gopcache.Key
	if s.cache != nil {
		key = req.rungKey(req.rung)
		sp := t.trace.Start("cache")
		ent, ok := s.cache.Get(key)
		sp.End()
		if ok {
			t.cache = "hit"
			s.serveCached(w, r, req, ent, "hit")
			return
		}
		t.cache = "miss"
		flightKey := req.ladderFlightKey()
		if ent, ok := s.waitFlight(w, r, flightKey, key); ok {
			if ent != nil {
				s.serveCached(w, r, req, ent, "shared")
			}
			return
		}
		defer s.flights.finish(flightKey)
	}

	if !s.acquire(w) {
		return
	}
	defer s.release()

	ctx := r.Context()
	start := time.Now()
	gsp := t.trace.Start("gen")
	frames := make([]*hdvideobench.Frame, req.frames)
	gen := hdvideobench.NewSequence(req.seq, req.opts.Width, req.opts.Height)
	for i := range frames {
		frames[i] = gen.Frame(i)
	}
	gsp.End()
	sp := t.trace.Start("enc")
	rends, err := s.ladder(req.codec, req.opts, frames, req.ladder)
	encDur := sp.End()
	if err != nil {
		if ctx.Err() != nil {
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.m.encodes.Inc()
	s.m.encSeconds.Add(encDur.Seconds())
	s.m.coldEnc.With("transcode", t.codec, t.res, t.cache).Observe(encDur.Seconds())

	// Commit every rung; cache trouble downgrades to serving the
	// requested rung from memory, never to failing the request.
	var serveEnt *gopcache.Entry
	if s.cache != nil {
		csp := t.trace.Start("commit")
		for i, rend := range rends {
			fill, err := s.cache.NewFill(req.rungKey(i))
			if err != nil {
				continue
			}
			cw := &countWriter{w: fill}
			if err := hdvideobench.WriteStream(cw, rend.Header, rend.Packets); err != nil {
				fill.Abort()
				continue
			}
			ent, err := fill.Commit(hdvideobench.GOPIndex{Size: cw.n})
			if err != nil {
				continue
			}
			if i == req.rung {
				serveEnt = ent
			} else {
				ent.Close()
			}
		}
		csp.End()
		s.m.cacheFill.With("transcode", t.codec, t.res, t.cache).Observe(time.Since(start).Seconds())
	}
	if serveEnt != nil {
		s.serveCached(w, r, req, serveEnt, "miss")
	} else {
		h := w.Header()
		h.Set("Content-Type", StreamContentType)
		h.Set("X-HDVB-Codec", req.codec.String())
		h.Set("X-HDVB-Frames", strconv.Itoa(req.frames))
		h.Set("Server-Timing", t.serverTiming())
		wsp := t.trace.Start("write")
		werr := hdvideobench.WriteStream(w, rends[req.rung].Header, rends[req.rung].Packets)
		wsp.End()
		if werr != nil {
			s.log.Warn("ladder stream failed mid-flight", "id", t.id, "rung", rung.Name, "err", werr)
			return
		}
		s.m.served.Inc()
	}
	s.log.Info("ladder rung served",
		"id", t.id, "codec", req.codec.String(), "seq", req.seq.String(),
		"ladder", req.ladderSpec, "rung", rung.Name, "frames", req.frames,
		"dur", time.Since(start).Round(time.Millisecond))
}

// countWriter counts bytes through to w (the cache fill needs the body
// size for the index trailer's Size field).
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleTranscodePost(w http.ResponseWriter, r *http.Request) {
	s.m.postReqs.Inc()
	t := track(w)
	q := r.URL.Query()
	codec, opts, err := s.parseCoding(q, 0, 0) // width/height 0: copy the input's
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	t.setStream(codec, opts)
	if !s.acquire(w) {
		return
	}
	defer s.release()

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUpload)
	hw := &deferredHeaderWriter{rw: w, set: func(h http.Header) {
		h.Set("Content-Type", StreamContentType)
		h.Set("X-HDVB-Codec", codec.String())
		h.Set("Server-Timing", t.serverTiming())
	}}
	ctx := r.Context()
	start := time.Now()
	sp := t.trace.Start("enc")
	stats, err := hdvideobench.Transcode(body, hw, codec, opts)
	encDur := sp.End()
	switch {
	case err == nil:
		s.m.transcoded.Inc()
		s.m.encodes.Inc()
		s.m.encSeconds.Add(encDur.Seconds())
		s.m.coldEnc.With("transcode", t.codec, t.res, t.cache).Observe(encDur.Seconds())
		if hw.wrote {
			w.Header().Set(http.TrailerPrefix+"Server-Timing", t.serverTiming())
		}
		s.log.Info("upload transcoded",
			"id", t.id, "in", stats.In.String(), "out", stats.Out.String(),
			"frames", stats.Frames, "bytes_in", stats.BytesIn, "bytes_out", stats.BytesOut,
			"dur", time.Since(start).Round(time.Millisecond))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil:
		s.log.Debug("transcode client gone", "id", t.id, "frames", stats.Frames)
	case !hw.wrote:
		// A bad upload (wrong magic, unsupported version, bad config)
		// fails before the output container opens.
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		s.log.Warn("transcode failed mid-flight", "id", t.id, "frames", stats.Frames, "err", err)
	}
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

// flushWriter is what the streaming paths need from their sink: the
// container's StreamWriter flush-through triggers on the error-less
// Flush flavor.
type flushWriter interface {
	io.Writer
	Flush()
}

// deferredHeaderWriter postpones the stream headers to the first body
// byte: a request that fails before producing any output (bad encoder
// config, cache fill refusal) can then answer with a clean error status
// instead of a 400 that carries X-HDVB-* stream headers.
type deferredHeaderWriter struct {
	rw    http.ResponseWriter
	set   func(http.Header)
	wrote bool
}

func (d *deferredHeaderWriter) Write(p []byte) (int, error) {
	if !d.wrote {
		d.wrote = true
		if d.set != nil {
			d.set(d.rw.Header())
		}
	}
	return d.rw.Write(p)
}

func (d *deferredHeaderWriter) Flush() {
	if f, ok := d.rw.(http.Flusher); ok {
		f.Flush()
	}
}

// errTrackWriter remembers the first write failure, letting fillCache
// tell a cache-disk fault (500) apart from a request the encoder
// rejected before producing bytes (400).
type errTrackWriter struct {
	w   io.Writer
	err error
}

func (e *errTrackWriter) Write(p []byte) (int, error) {
	n, err := e.w.Write(p)
	if err != nil && e.err == nil {
		e.err = err
	}
	return n, err
}

// cacheTeeWriter mirrors the response byte stream into a cache fill. A
// fill failure (disk full) quietly stops the tee — caching is an
// optimization, never a reason to fail the client's stream — and the
// fill is aborted instead of committed.
type cacheTeeWriter struct {
	dst    *deferredHeaderWriter
	fill   *gopcache.Fill
	teeErr error
}

func (t *cacheTeeWriter) Write(p []byte) (int, error) {
	n, err := t.dst.Write(p)
	if n > 0 && t.teeErr == nil {
		if _, werr := t.fill.Write(p[:n]); werr != nil {
			t.teeErr = werr
		}
	}
	return n, err
}

func (t *cacheTeeWriter) Flush() { t.dst.Flush() }
