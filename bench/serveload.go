package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"strings"
	"sync"
	"time"
)

// serveSeqs are the paper's four sequences, the serve workloads' sources.
var serveSeqs = []string{"blue_sky", "pedestrian_area", "riverbed", "rush_hour"}

// loopback is the production handler on a loopback listener plus the
// keep-alive client the load is generated with.
type loopback struct {
	srv    *http.Server
	done   chan struct{} // closed when Serve has returned
	base   string
	client *http.Client
}

func startLoopback(h http.Handler, clients int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
		}},
	}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

func (l *loopback) close() {
	l.client.CloseIdleConnections()
	l.srv.Close()
	<-l.done
}

// response is one GET as the client saw it.
type response struct {
	status int
	cache  string // X-HDVB-Cache
	first  time.Duration
	err    error
}

// get fetches path into buf (reset first). first is the time from the
// request to the first body byte. With tr set, dialling is a span.
func (l *loopback) get(path, byteRange string, buf *bytes.Buffer, tr *tracer, op, parent int) response {
	buf.Reset()
	req, err := http.NewRequest(http.MethodGet, l.base+path, nil)
	if err != nil {
		return response{err: err}
	}
	if byteRange != "" {
		req.Header.Set("Range", byteRange)
	}
	if tr != nil {
		var sp int
		req = req.WithContext(httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			ConnectStart: func(_, _ string) { sp = tr.begin("serve.connect", op, parent) },
			ConnectDone:  func(_, _ string, _ error) { tr.end(sp) },
		}))
	}
	t0 := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	r := response{status: resp.StatusCode, cache: resp.Header.Get("X-HDVB-Cache")}
	var one [1]byte
	if n, _ := io.ReadFull(resp.Body, one[:]); n == 1 {
		r.first = time.Since(t0)
		buf.WriteByte(one[0])
	}
	_, r.err = buf.ReadFrom(resp.Body)
	return r
}

// coldBlocksPerSecond sizes serve_cold: a block of 12 cold 576p requests
// takes two clients about 2.3 s on the reference box.
const coldBlocksPerSecond = 0.4

// request is one entry of a serve workload's plan.
type request struct {
	cell int
	key  int // index into keys
	kind int // kindFull, kindRange, kindIndex (warm only)
}

const (
	kindFull = iota
	kindRange
	kindIndex
	numKinds
)

// primed is one cache entry serve_warm reads back: the body a cold request
// delivered, its index document, and the second GOP's position.
type primed struct {
	body      []byte
	index     []byte
	gopOffset int64
	gopFrame  int
}

type serveRunner struct {
	e    *env
	warm bool

	keys []string  // /transcode URLs, in plan order of first use
	seq  []string  // source sequence of each key
	plan []request // cold: every key once; warm: 240 requests over the primed keys

	dir    string
	lb     *loopback
	bufs   []*bytes.Buffer // one per client
	primed []primed        // warm: per key
	mu     sync.Mutex
	kept   map[int][]byte // cold: bodies of the first block, by key

	used   int                // cold: plan entries consumed by earlier phases, which must not be asked again
	before map[string]float64 // /metrics at the start of the traced phase
}

func newServe(e *env, warm bool) *serveRunner {
	s := e.size
	rng := rand.New(rand.NewSource(e.seed))
	r := &serveRunner{e: e, warm: warm, kept: map[int][]byte{}}
	// Keys come in blocks that hold every codec x sequence once, shuffled by
	// the seed; a run measures whole blocks. Block b gives cell c the
	// quantiser 3 + (b + c + c/4) mod 8 — a Latin square over 3..10 (riverbed
	// drops under the PSNR floor beyond that), skewed per codec so that the
	// three heavy riverbed streams of a block sit at spread-out quantisers.
	// Every (codec, sequence, q) is thus a distinct cache key, and block b
	// holds the same streams on every seed: the seed moves the order of
	// requests, not their content.
	const quantisers = 8
	cells := len(sutCodecs) * len(serveSeqs)
	for b := 0; b < quantisers; b++ {
		for _, cell := range rng.Perm(cells) {
			c, seq := sutCodecs[cell/len(serveSeqs)], serveSeqs[cell%len(serveSeqs)]
			r.keys = append(r.keys, transcodeURL(c.key, seq, s.ServeW, s.ServeH, s, 3+(b+cell+cell/len(serveSeqs))%quantisers))
			r.seq = append(r.seq, seq)
			if !warm {
				r.plan = append(r.plan, request{cell: cell, key: len(r.keys) - 1})
			}
		}
		if warm {
			break // serve_warm reads back the first block only
		}
	}
	if warm {
		// Per key 16 full GETs, 3 GOP-aligned ranges and 1 index: 80/15/5.
		for k := range r.keys {
			for i := 0; i < 20; i++ {
				kind := kindFull
				switch {
				case i >= 19:
					kind = kindIndex
				case i >= 16:
					kind = kindRange
				}
				r.plan = append(r.plan, request{cell: k*numKinds + kind, key: k, kind: kind})
			}
		}
		rng.Shuffle(len(r.plan), func(i, j int) { r.plan[i], r.plan[j] = r.plan[j], r.plan[i] })
	}
	return r
}

// transcodeURL is a GET /transcode request for a w x h stream at quantiser
// q. The plan uses q 3..10; warm-up and the traced-only experiments use
// values above that, so they never collide with a planned key.
func transcodeURL(codec, seq string, w, h int, s sizes, q int) string {
	return fmt.Sprintf("/transcode?codec=%s&seq=%s&width=%d&height=%d&frames=%d&gop=%d&q=%d&simd=1&workers=1",
		codec, seq, w, h, s.ServeFrames, s.ServeGOP, q)
}

func (r *serveRunner) cells() int {
	if r.warm {
		return len(r.keys) * numKinds
	}
	return len(sutCodecs) * len(serveSeqs)
}

func (r *serveRunner) setup(tr *tracer) error {
	dir, err := os.MkdirTemp(r.e.workDir, "cache-")
	if err != nil {
		return err
	}
	r.dir = dir
	budget := r.e.size.ColdCacheBytes
	if r.warm {
		budget = 0 // everything primed stays
	}
	h, err := sutServer(dir, budget, serveClients)
	if err != nil {
		return err
	}
	if r.lb, err = startLoopback(h, serveClients); err != nil {
		return err
	}
	r.bufs = make([]*bytes.Buffer, serveClients)
	for i := range r.bufs {
		r.bufs[i] = new(bytes.Buffer)
	}
	if !r.warm {
		// Warm-up: one cold request per codec on keys outside the plan.
		for _, c := range sutCodecs {
			path := transcodeURL(c.key, "rush_hour", r.e.size.ServeW, r.e.size.ServeH, r.e.size, 31)
			if resp := r.lb.get(path, "", r.bufs[0], nil, -1, -1); resp.err != nil || resp.status != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d, %v", path, resp.status, resp.err)
			}
		}
		return nil
	}
	return r.prime()
}

// keyParam extracts one query parameter's value from a key URL.
func keyParam(key, name string) string {
	_, rest, _ := strings.Cut(key, name+"=")
	v, _, _ := strings.Cut(rest, "&")
	return v
}

// prime fills the cache with every key (all misses), keeps what each
// request delivered, then reads every entry's index and warms up the three
// request kinds.
func (r *serveRunner) prime() error {
	r.primed = make([]primed, len(r.keys))
	errs := make([]error, len(r.keys))
	measureClients(0, len(r.keys), serveClients, 1, func(client, i int) opStat {
		resp := r.lb.get(r.keys[i], "", r.bufs[client], nil, -1, -1)
		if resp.err != nil || resp.status != http.StatusOK || resp.cache != "miss" {
			errs[i] = fmt.Errorf("priming %s: status %d cache %q: %v", r.keys[i], resp.status, resp.cache, resp.err)
		}
		r.primed[i].body = append([]byte(nil), r.bufs[client].Bytes()...)
		return opStat{}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for k, key := range r.keys {
		resp := r.lb.get(key+"&index=1", "", r.bufs[0], nil, -1, -1)
		if resp.err != nil || resp.status != http.StatusOK {
			return fmt.Errorf("index of %s: status %d, %v", key, resp.status, resp.err)
		}
		p := &r.primed[k]
		p.index = append([]byte(nil), r.bufs[0].Bytes()...)
		var doc struct {
			Size int64 `json:"size"`
			GOPs []struct {
				Offset int64 `json:"offset"`
				Frame  int   `json:"frame"`
			} `json:"gops"`
		}
		if err := json.Unmarshal(p.index, &doc); err != nil {
			return fmt.Errorf("index of %s: %w", key, err)
		}
		if doc.Size != int64(len(p.body)) || len(doc.GOPs) < 2 {
			return fmt.Errorf("index of %s: size %d for a %d-byte body, %d GOPs", key, doc.Size, len(p.body), len(doc.GOPs))
		}
		p.gopOffset, p.gopFrame = doc.GOPs[1].Offset, doc.GOPs[1].Frame
	}
	for kind := 0; kind < numKinds; kind++ {
		if st := r.fetch(0, request{key: 0, kind: kind}, nil, -1); st.failed {
			return fmt.Errorf("warm-up request kind %d failed", kind)
		}
	}
	return nil
}

func (r *serveRunner) teardown() {
	if r.lb != nil {
		r.lb.close()
		r.lb = nil
	}
	os.RemoveAll(r.dir) // "" when set-up never got that far: a no-op
	r.dir = ""
}

// fetch performs one planned request and checks the response.
func (r *serveRunner) fetch(client int, rq request, tr *tracer, id int) opStat {
	root := tr.begin("op.get", id, -1)
	defer tr.end(root)
	buf := r.bufs[client]
	frames := r.e.size.ServeFrames
	if !r.warm {
		resp := r.lb.get(r.keys[rq.key], "", buf, tr, id, root)
		st := opStat{cell: rq.cell, first: resp.first, frames: frames, bytes: int64(buf.Len())}
		pkts, declared, err := sutCountPackets(buf.Bytes())
		st.failed = resp.err != nil || err != nil || resp.status != http.StatusOK || resp.cache != "miss" ||
			pkts != frames || declared != frames
		if !st.failed && rq.key < r.cells() {
			r.mu.Lock()
			if r.kept[rq.key] == nil {
				r.kept[rq.key] = append([]byte(nil), buf.Bytes()...)
			}
			r.mu.Unlock()
		}
		return st
	}
	p := r.primed[rq.key]
	path, byteRange, want, status := r.keys[rq.key], "", p.body, http.StatusOK
	switch rq.kind {
	case kindRange:
		byteRange = fmt.Sprintf("bytes=%d-", p.gopOffset)
		want, status, frames = p.body[p.gopOffset:], http.StatusPartialContent, frames-p.gopFrame
	case kindIndex:
		path += "&index=1"
		want, frames = p.index, 0
	}
	resp := r.lb.get(path, byteRange, buf, tr, id, root)
	return opStat{cell: rq.cell, first: resp.first, frames: frames, bytes: int64(buf.Len()),
		failed: resp.err != nil || resp.status != status || resp.cache != "hit" || !bytes.Equal(buf.Bytes(), want)}
}

func (r *serveRunner) measure(seconds float64, tr *tracer) measurement {
	if tr != nil {
		r.before, _ = r.scrape()
		r.lb.client.CloseIdleConnections() // so that each client dials once under the tracer
	}
	// serve_warm cycles through its plan for the time asked. serve_cold's
	// blocks differ in content (each holds other quantisers), so it measures
	// a fixed number of whole blocks instead: as many as take about the time
	// asked on the two-core reference box.
	base, limit := r.used, 0
	if !r.warm {
		blocks := max(1, int(math.Round(coldBlocksPerSecond*seconds)))
		limit = min(blocks*r.cells(), len(r.plan)-base)
	}
	m := measureClients(seconds, limit, serveClients, r.cells(), func(client, i int) opStat {
		i = (i + base) % len(r.plan)
		return r.fetch(client, r.plan[i], tr, i)
	})
	r.used += len(m.ops)
	return m
}

// verify decodes the bodies of the first block — one per codec x sequence —
// and compares them with the frames the server generated them from.
func (r *serveRunner) verify(tr *tracer) (quality, error) {
	s := r.e.size
	src := map[string][]*Frame{}
	for _, seq := range serveSeqs {
		f, err := sutGenerate(seq, s.ServeW, s.ServeH, 0, s.ServeFrames, tr)
		if err != nil {
			return quality{}, err
		}
		src[seq] = f
	}
	var q quality
	var nbytes int64
	n := len(sutCodecs) * len(serveSeqs)
	for k := 0; k < n; k++ {
		body := r.kept[k]
		if r.warm {
			body = r.primed[k].body
		}
		if body == nil {
			return q, fmt.Errorf("no response kept for %s", r.keys[k])
		}
		got, err := sutDecodeContainer(body)
		if err != nil {
			got = nil
		}
		q.score(r.e, r.keys[k], src[r.seq[k]], got, s.MinPSNR, tr)
		nbytes += int64(len(body))
	}
	q.kbps = kbpsAt25(nbytes, n*s.ServeFrames)
	return q, nil
}

// scrape reads the server's /metrics.
func (r *serveRunner) scrape() (map[string]float64, error) {
	var buf bytes.Buffer
	if resp := r.lb.get("/metrics", "", &buf, nil, -1, -1); resp.err != nil || resp.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d, %v", resp.status, resp.err)
	}
	return sutParseMetrics(buf.Bytes())
}

// layers reads what the server emits about itself — /metrics deltas over
// the traced phase and the phases of its last requests — then runs the two
// traced-only experiments: same-key cold pairs and paced viewers.
func (r *serveRunner) layers(out map[string]float64, m measurement, tr *tracer) error {
	after, err := r.scrape()
	if err != nil {
		return err
	}
	delta := func(series string) float64 { return after[series] - r.before[series] }
	out["gopcache.hits"] = delta("hdvserve_cache_hits_total")
	out["gopcache.misses"] = delta("hdvserve_cache_misses_total")
	out["gopcache.evictions"] = delta("hdvserve_cache_evictions_total")
	if lookups := out["gopcache.hits"] + out["gopcache.misses"]; lookups > 0 {
		out["gopcache.hit_ratio"] = out["gopcache.hits"] / lookups
	}
	out["serve.encodes"] = delta("hdvserve_encodes_total")
	out["serve.bytes_served"] = delta("hdvserve_bytes_served_total")
	out["serve.rejected_503"] = delta("hdvserve_capacity_rejections_total")
	out["serve.rate_limited"] = delta("hdvserve_rate_limited_total")
	out["serve.singleflight_shared"] = delta("hdvserve_singleflight_shared_total")

	var ring struct {
		Requests []ringRecord `json:"requests"`
	}
	var buf bytes.Buffer
	if resp := r.lb.get("/debug/requests", "", &buf, nil, -1, -1); resp.err != nil || resp.status != http.StatusOK {
		return fmt.Errorf("GET /debug/requests: status %d, %v", resp.status, resp.err)
	}
	if err := json.Unmarshal(buf.Bytes(), &ring); err != nil {
		return err
	}
	for i, rec := range ring.Requests {
		for _, p := range rec.Phases {
			tr.add("serve."+p.Name, -1-i, -1, time.Duration(p.MS*float64(time.Millisecond)))
		}
	}
	for _, phase := range []string{"cache", "gen", "enc", "commit", "write", "flight"} {
		out["serve."+phase+"_ms"] = tr.meanMS("serve." + phase)
	}
	out["serve.connect_ms"] = tr.meanMS("serve.connect")
	out["serve.ttfb_p90_ms"] = percentile(m.all(opFirst), 90)
	out["serve.req_p90_ms"] = percentile(m.all(opWall), 90)
	if r.warm {
		out["serve.req_p99_ms"] = percentile(m.all(opWall), 99)
	}
	fmt.Fprintf(r.e.stderr, "serve percentiles over %d requests\n", len(m.ops)-m.failed())
	if !r.warm {
		for _, c := range sutCodecs {
			out[c.key+".enc_frame_ms"] = encPhaseMS(ring.Requests, c) / float64(r.e.size.ServeFrames)
		}
	}

	// Singleflight: 8 same-key cold pairs fired together; each pair should
	// cost one encode, the other request sharing its fill.
	const pairs = 8
	sharedBefore := after["hdvserve_singleflight_shared_total"]
	small := func(q int) string {
		return transcodeURL("mpeg2", "rush_hour", min(r.e.size.ServeW, 320), min(r.e.size.ServeH, 240), r.e.size, q)
	}
	for p := 0; p < pairs; p++ {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.lb.get(small(20+p), "", r.bufs[c], nil, -1, -1)
			}()
		}
		wg.Wait()
	}
	final, err := r.scrape()
	if err != nil {
		return err
	}
	out["serve.singleflight_collapse_ratio"] = (final["hdvserve_singleflight_shared_total"] - sharedBefore) / pairs

	// Paced viewers: a primed key (warm) and a fresh one (cold).
	ws := sutSLO(r.lb.base+small(20), serveClients)
	cs := sutSLO(r.lb.base+small(30), serveClients)
	out["slo.warm_miss_rate"] = ws.missRate
	out["slo.cold_miss_rate"] = cs.missRate
	out["slo.lateness_p95_ms"] = cs.latenessP95MS
	if ws.errors+cs.errors > 0 {
		return fmt.Errorf("slo viewers: %d stream errors", ws.errors+cs.errors)
	}
	return nil
}

// ringRecord is the part of a /debug/requests record the harness reads.
type ringRecord struct {
	Path   string `json:"path"`
	Phases []struct {
		Name string  `json:"name"`
		MS   float64 `json:"ms"`
	} `json:"phases"`
}

// encPhaseMS is the mean "enc" phase of the ring's requests for one codec.
func encPhaseMS(reqs []ringRecord, c sutCodec) float64 {
	var v []float64
	for _, rec := range reqs {
		if keyParam(rec.Path, "codec") != c.key {
			continue
		}
		for _, p := range rec.Phases {
			if p.Name == "enc" {
				v = append(v, p.MS)
			}
		}
	}
	return mean(v)
}
