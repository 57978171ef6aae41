package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// sizes is every dimension of the workloads. The benchmark runs fullSize;
// the smoke test runs the same code at a size that finishes in seconds.
type sizes struct {
	W, H       int // picture size of the four codec workloads
	ClipFrames int // enc_serial, dec_serial: frames per clip

	ParFrames, ParGOP       int // enc_parallel
	LadderFrames, LadderGOP int
	Rungs                   []ladderRung

	ServeW, ServeH        int
	ServeFrames, ServeGOP int
	ColdCacheBytes        int64 // serve_cold's cache budget, below what a run writes

	MinPSNR, MinRungPSNR float64
	ProbeTime            time.Duration // measured time per (K) probe
	SetupBudget          time.Duration // set-up repeats (at most 3 times) while it fits in here
}

// fullSize is sized for the contract's time cap: with 6 workloads the
// driver makes 136 runs in 3420 s, so one run (set-up, warm-up, measured
// phase, checks) has to stay under about 20 s on two cores. That is why
// the clips are 8 and 12 frames rather than the issue's 12 and 24.
var fullSize = sizes{
	W: 1280, H: 720,
	ClipFrames: 8,
	ParFrames:  12, ParGOP: 4,
	LadderFrames: 12, LadderGOP: 6,
	Rungs: []ladderRung{
		{"240p25", 416, 240, 400},
		{"576p25", 720, 576, 1500},
		{"720p25", 1280, 720, 3000},
	},
	ServeW: 720, ServeH: 576,
	ServeFrames: 8, ServeGOP: 4,
	ColdCacheBytes: 16 << 20,
	MinPSNR:        28, MinRungPSNR: 25,
	ProbeTime:   20 * time.Millisecond,
	SetupBudget: 4 * time.Second,
}

// env is one invocation's parameters.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	size    sizes
	workDir string // scratch space inside the checkout
	stderr  io.Writer
}

// parallelWorkers is enc_parallel's worker budget.
func parallelWorkers() int { return min(runtime.NumCPU(), 4) }

// serveClients is the serve workloads' closed-loop client count: never more
// load-generating goroutines than cores on the two-core reference box.
const serveClients = 2

// --- measurement -------------------------------------------------------------

// opStat is one operation as the caller saw it.
type opStat struct {
	cell   int           // request class: codec x clip, or key x request kind
	wall   time.Duration // call to completion
	first  time.Duration // call to first output (packet, frame or body byte)
	frames int           // video frames coded, decoded or carried
	bytes  int64         // coded bytes produced, consumed or delivered
	failed bool
}

// measurement is one measured phase.
type measurement struct {
	ops   []opStat
	cells int

	framesPerS      float64
	mbytesPerS      float64
	cpuMSPerFrame   float64
	allocKBPerFrame float64

	wall, cpu time.Duration // whole phase
	gcCycles  uint32
	gcPause   time.Duration
}

func (m *measurement) failed() int {
	n := 0
	for _, o := range m.ops {
		if o.failed {
			n++
		}
	}
	return n
}

// classP50MS is the latency statistic of the end-to-end metrics: the median
// of each request class, averaged over classes. A plain median over all
// operations sits between the modes of a mixture (an H.264 riverbed encode
// takes five times an MPEG-2 blue_sky one), so it moves with the mix that
// happened to fit in the run; this does not.
func (m *measurement) classP50MS(pick func(opStat) time.Duration) float64 {
	byCell := make([][]float64, m.cells)
	for _, o := range m.ops {
		if !o.failed {
			byCell[o.cell] = append(byCell[o.cell], ms(pick(o)))
		}
	}
	var meds []float64
	for _, v := range byCell {
		if len(v) > 0 {
			meds = append(meds, median(v))
		}
	}
	return mean(meds)
}

func (m *measurement) all(pick func(opStat) time.Duration) []float64 {
	v := make([]float64, 0, len(m.ops))
	for _, o := range m.ops {
		if !o.failed {
			v = append(v, ms(pick(o)))
		}
	}
	return v
}

func opWall(o opStat) time.Duration  { return o.wall }
func opFirst(o opStat) time.Duration { return o.first }

func (m *measurement) finish(start, end procSnap) {
	m.wall = end.wall.Sub(start.wall)
	m.cpu = end.cpu - start.cpu
	m.gcCycles = end.gcs - start.gcs
	m.gcPause = end.gcPause - start.gcPause
}

// measurePasses is the closed loop of one caller. A pass runs op once for
// every cell; passes repeat until the whole number of passes nearest to
// seconds has run (at least one), so every pass — and every run — holds
// the same work. Rates are taken from the median pass.
func measurePasses(seconds float64, cells int, op func(cell, id int) opStat) measurement {
	m := measurement{cells: cells}
	var walls, cpus, allocs []float64
	var frames int
	var nbytes int64
	start := snapProc()
	for id := 0; ; {
		s0 := snapProc()
		frames, nbytes = 0, 0
		for c := 0; c < cells; c++ {
			t0 := time.Now()
			st := op(c, id)
			st.cell, st.wall = c, time.Since(t0)
			m.ops = append(m.ops, st)
			frames += st.frames
			nbytes += st.bytes
			id++
		}
		s1 := snapProc()
		pass := s1.wall.Sub(s0.wall).Seconds()
		walls = append(walls, pass)
		cpus = append(cpus, (s1.cpu - s0.cpu).Seconds())
		allocs = append(allocs, float64(s1.alloc-s0.alloc))
		if s1.wall.Sub(start.wall).Seconds()+pass/2 >= seconds {
			m.finish(start, s1)
			break
		}
	}
	if frames > 0 {
		m.framesPerS = float64(frames) / median(walls)
		m.mbytesPerS = float64(nbytes) / 1e6 / median(walls)
		m.cpuMSPerFrame = median(cpus) * 1e3 / float64(frames)
		m.allocKBPerFrame = median(allocs) / 1024 / float64(frames)
	}
	return m
}

// measureClients is the closed loop of several keep-alive clients. Each
// client takes the next operation index from a shared counter: for seconds
// when limit is 0, for exactly limit operations otherwise (a plan whose
// stretches differ in content is measured as fixed work, so that every run
// holds the same requests). Throughput is summed over clients, each over
// its own busy time, so the moment one client has stopped and another is
// finishing its last request does not count as idle capacity.
func measureClients(seconds float64, limit, clients, cells int, do func(client, i int) opStat) measurement {
	m := measurement{cells: cells}
	perClient := make([][]opStat, clients)
	busy := make([]time.Duration, clients)
	start := snapProc()
	var next atomic.Int64
	take := func() (int, bool) {
		i := int(next.Add(1) - 1)
		if limit > 0 {
			return i, i < limit
		}
		return i, time.Since(start.wall).Seconds() < seconds
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				t0 := time.Now()
				st := do(c, i)
				st.wall = time.Since(t0)
				perClient[c] = append(perClient[c], st)
				busy[c] = time.Since(start.wall)
			}
		}()
	}
	wg.Wait()
	end := snapProc()
	m.finish(start, end)
	frames := 0
	for c, ops := range perClient {
		cf, cb := 0, int64(0)
		for _, o := range ops {
			if !o.failed {
				cf += o.frames
				cb += o.bytes
			}
		}
		if busy[c] > 0 {
			m.framesPerS += float64(cf) / busy[c].Seconds()
			m.mbytesPerS += float64(cb) / 1e6 / busy[c].Seconds()
		}
		frames += cf
		m.ops = append(m.ops, ops...)
	}
	if frames > 0 {
		m.cpuMSPerFrame = ms(m.cpu) / float64(frames)
		m.allocKBPerFrame = float64(end.alloc-start.alloc) / 1024 / float64(frames)
	}
	return m
}

// quality is what the output checks report besides pass/fail.
type quality struct {
	psnrDB  float64 // mean over the streams scored
	kbps    float64 // at 25 fps
	failed  int     // operations whose output failed a check
	streams int
}

// score compares one decoded stream with its source; under floor dB (or
// with frames missing) it counts as a failed operation.
func (q *quality) score(e *env, what string, src, got []*Frame, floor float64, tr *tracer) {
	p := meanPSNR(src, got, tr)
	if p < floor {
		fmt.Fprintf(e.stderr, "%s: PSNR %.2f dB below %.0f dB\n", what, p, floor)
		q.failed++
	}
	q.streams++
	q.psnrDB += (p - q.psnrDB) / float64(q.streams)
}

func kbpsAt25(nbytes int64, frames int) float64 {
	return float64(nbytes) * 8 * 25 / float64(frames) / 1000
}

// meanPSNR compares decoded frames with their source, one span per frame.
func meanPSNR(src, got []*Frame, tr *tracer) float64 {
	if len(got) != len(src) || len(src) == 0 {
		return 0
	}
	sum := 0.0
	for i := range src {
		sp := tr.begin("metrics.psnr_frame", -1, -1)
		p := sutPSNR(src[i], got[i])
		tr.end(sp)
		sum += math.Min(p, 100) // identical frames report +Inf
	}
	return sum / float64(len(src))
}

// runner is one workload's life cycle. setup does everything that precedes
// timing, warm-up included, and can run again after teardown; measure runs
// the closed loop (with spans when tr is non-nil); verify checks the
// outputs measure kept; layers adds the workload's own per-layer metrics
// after a traced phase.
type runner interface {
	setup(tr *tracer) error
	teardown()
	measure(seconds float64, tr *tracer) measurement
	verify(tr *tracer) (quality, error)
	layers(out map[string]float64, m measurement, tr *tracer) error
}

type workload struct {
	name string
	why  string
	new  func(e *env) runner
}

var workloads = []workload{
	{"enc_serial", "Figure 1(d): one caller encodes 720p clips with each codec; motion search, SAD and half-pel planes dominate",
		func(e *env) runner { return newSerial(e, false) }},
	{"dec_serial", "Figure 1(b): one caller decodes the same clips; no motion search, so entropy decode, IDCT and MC interpolation dominate",
		func(e *env) runner { return newSerial(e, true) }},
	{"enc_parallel", "EncodeStream with GOP chunks, two slices and wavefront on every core; same codec work as enc_serial plus scheduling",
		func(e *env) runner { return newParallel(e) }},
	{"ladder", "EncodeLadder of one 720p mezzanine into three rungs; only user of downscale, motion-hint seeding and rate control",
		func(e *env) runner { return newLadder(e) }},
	{"serve_cold", "two clients GET distinct /transcode keys, every one a cache miss: generate, encode, tee into an evicting cache",
		func(e *env) runner { return newServe(e, false) }},
	{"serve_warm", "two clients GET primed keys (full, Range, index), every one a cache hit; codecs idle, writer stack and cache reads dominate",
		func(e *env) runner { return newServe(e, true) }},
}

// --- enc_serial, dec_serial ------------------------------------------------------

type clip struct {
	seq    string
	off    int
	frames []*Frame
}

type serialRunner struct {
	e       *env
	decode  bool
	clips   []clip
	coded   []encoded  // per cell: setup's encode (dec) or the last measured one (enc)
	decoded [][]*Frame // per cell: the last measured decode (dec)
}

func newSerial(e *env, decode bool) *serialRunner {
	rng := rand.New(rand.NewSource(e.seed))
	r := &serialRunner{e: e, decode: decode}
	for _, seq := range []string{"riverbed", "blue_sky"} {
		r.clips = append(r.clips, clip{seq: seq, off: rng.Intn(16)})
	}
	return r
}

// paperOptions are the paper's §IV coding options with the SWAR kernels.
func paperOptions(w, h int) EncoderOptions {
	return EncoderOptions{Width: w, Height: h, SIMD: true}
}

func (r *serialRunner) cell(ci, k int) int { return ci*len(r.clips) + k }

func (r *serialRunner) setup(tr *tracer) error {
	s := r.e.size
	for k := range r.clips {
		f, err := sutGenerate(r.clips[k].seq, s.W, s.H, r.clips[k].off, s.ClipFrames, tr)
		if err != nil {
			return err
		}
		r.clips[k].frames = f
	}
	cells := len(sutCodecs) * len(r.clips)
	r.coded = make([]encoded, cells)
	r.decoded = make([][]*Frame, cells)
	last := len(r.clips) - 1
	for ci, c := range sutCodecs {
		if !r.decode {
			// Warm-up: a short encode per codec.
			if _, _, err := sutEncode(c, paperOptions(s.W, s.H), r.clips[last].frames[:min(3, s.ClipFrames)], nil, -1, -1); err != nil {
				return err
			}
			continue
		}
		for k, cl := range r.clips {
			enc, _, err := sutEncode(c, paperOptions(s.W, s.H), cl.frames, nil, -1, -1)
			if err != nil {
				return fmt.Errorf("encoding %s/%s: %w", c.key, cl.seq, err)
			}
			r.coded[r.cell(ci, k)] = enc
		}
		warm := r.coded[r.cell(ci, last)]
		if _, _, err := sutDecode(c, warm.hdr, warm.pkts[:min(4, len(warm.pkts))], nil, -1, -1); err != nil {
			return err
		}
	}
	return nil
}

func (r *serialRunner) teardown() {}

func (r *serialRunner) measure(seconds float64, tr *tracer) measurement {
	s := r.e.size
	return measurePasses(seconds, len(r.coded), func(cell, id int) opStat {
		c, cl := sutCodecs[cell/len(r.clips)], r.clips[cell%len(r.clips)]
		root := tr.begin("op."+c.key, id, -1)
		defer tr.end(root)
		if r.decode {
			in := r.coded[cell]
			frames, first, err := sutDecode(c, in.hdr, in.pkts, tr, id, root)
			r.decoded[cell] = frames
			return opStat{first: first, frames: len(frames), bytes: in.bytes,
				failed: err != nil || len(frames) != len(cl.frames)}
		}
		enc, first, err := sutEncode(c, paperOptions(s.W, s.H), cl.frames, tr, id, root)
		r.coded[cell] = enc
		return opStat{first: first, frames: len(enc.pkts), bytes: enc.bytes,
			failed: err != nil || len(enc.pkts) != len(cl.frames)}
	})
}

func (r *serialRunner) verify(tr *tracer) (quality, error) {
	var q quality
	var nbytes int64
	frames := 0
	for cell, enc := range r.coded {
		c, cl := sutCodecs[cell/len(r.clips)], r.clips[cell%len(r.clips)]
		got := r.decoded[cell]
		if !r.decode {
			var err error
			if got, _, err = sutDecode(c, enc.hdr, enc.pkts, nil, -1, -1); err != nil {
				got = nil
			}
		}
		q.score(r.e, c.key+"/"+cl.seq, cl.frames, got, r.e.size.MinPSNR, tr)
		nbytes += enc.bytes
		frames += len(cl.frames)
	}
	q.kbps = kbpsAt25(nbytes, frames)
	return q, nil
}

func (r *serialRunner) layers(out map[string]float64, m measurement, tr *tracer) error {
	for _, c := range sutCodecs {
		if r.decode {
			for _, t := range []string{"dec_i", "dec_p", "dec_b"} {
				out[c.key+"."+t+"_ms"] = tr.meanMS(c.key + "." + t)
			}
		} else {
			out[c.key+".enc_frame_ms"] = tr.meanMS(c.key + ".enc_frame")
		}
	}
	return nil
}

// --- enc_parallel ---------------------------------------------------------------

// firstWriter notes when the first byte after the container's stream
// header (written before any frame is coded) reached it.
type firstWriter struct {
	w     io.Writer
	skip  int // stream header bytes still to pass
	t0    time.Time
	first time.Duration
}

func (f *firstWriter) Write(p []byte) (int, error) {
	if f.first == 0 && len(p) > f.skip {
		f.first = time.Since(f.t0)
	}
	f.skip = max(0, f.skip-len(p))
	return f.w.Write(p)
}

type parallelRunner struct {
	e         *env
	off       int
	frames    []*Frame
	ref       [][]byte  // per codec: the workers=1 container
	serialFPS []float64 // per codec, from the reference encode
	buf       bytes.Buffer
	stats     *pipelineStats // collector of the traced phase
	peak      int            // StreamEncoder.PeakResident, traced phase
}

func newParallel(e *env) *parallelRunner {
	return &parallelRunner{e: e, off: rand.New(rand.NewSource(e.seed)).Intn(16)}
}

func (r *parallelRunner) options(workers int) EncoderOptions {
	s := r.e.size
	o := paperOptions(s.W, s.H)
	o.IntraPeriod, o.Slices, o.Wavefront, o.Workers = s.ParGOP, 2, true, workers
	return o
}

func (r *parallelRunner) setup(tr *tracer) error {
	s := r.e.size
	var err error
	if r.frames, err = sutGenerate("riverbed", s.W, s.H, r.off, s.ParFrames, tr); err != nil {
		return err
	}
	r.ref = make([][]byte, len(sutCodecs))
	r.serialFPS = make([]float64, len(sutCodecs))
	for ci, c := range sutCodecs {
		// The reference the measured bytes must equal: same settings, one worker.
		var ref bytes.Buffer
		t0 := time.Now()
		if _, err := sutEncodeStream(&ref, c, r.options(1), r.frames); err != nil {
			return fmt.Errorf("reference encode %s: %w", c.key, err)
		}
		r.serialFPS[ci] = float64(len(r.frames)) / time.Since(t0).Seconds()
		r.ref[ci] = ref.Bytes()
		// Warm-up of the parallel path: one GOP.
		if _, err := sutEncodeStream(io.Discard, c, r.options(parallelWorkers()), r.frames[:min(s.ParGOP, len(r.frames))]); err != nil {
			return err
		}
	}
	return nil
}

func (r *parallelRunner) teardown() {}

func (r *parallelRunner) measure(seconds float64, tr *tracer) measurement {
	opts := r.options(parallelWorkers())
	if tr != nil {
		r.stats = newPipelineStats()
		opts.Collector = r.stats.col
	}
	return measurePasses(seconds, len(sutCodecs), func(cell, id int) opStat {
		c := sutCodecs[cell]
		root := tr.begin("op."+c.key, id, -1)
		defer tr.end(root)
		r.buf.Reset()
		fw := &firstWriter{w: &r.buf, skip: sutStreamHeaderBytes, t0: time.Now()}
		var n int
		var err error
		if tr != nil {
			var peak int
			n, peak, err = sutEncodeStreamTraced(fw, c, opts, r.frames, tr, id, root)
			r.peak = max(r.peak, peak)
		} else {
			n, err = sutEncodeStream(fw, c, opts, r.frames)
		}
		return opStat{first: fw.first, frames: n, bytes: int64(r.buf.Len()),
			failed: err != nil || n != len(r.frames) || !bytes.Equal(r.buf.Bytes(), r.ref[cell])}
	})
}

func (r *parallelRunner) verify(tr *tracer) (quality, error) {
	var q quality
	var nbytes int64
	for ci, c := range sutCodecs {
		got, err := sutDecodeContainer(r.ref[ci])
		if err != nil {
			got = nil
		}
		q.score(r.e, c.key, r.frames, got, r.e.size.MinPSNR, tr)
		nbytes += int64(len(r.ref[ci]))
	}
	q.kbps = kbpsAt25(nbytes, len(sutCodecs)*len(r.frames))
	return q, nil
}

func (r *parallelRunner) layers(out map[string]float64, m measurement, tr *tracer) error {
	r.stats.metrics(out)
	out["stream.peak_resident_frames"] = float64(r.peak)
	byCodec := make([][]float64, len(sutCodecs))
	for _, o := range m.ops {
		if !o.failed {
			byCodec[o.cell] = append(byCodec[o.cell], o.wall.Seconds())
		}
	}
	var serialWall, parallelWall float64
	for ci, c := range sutCodecs {
		n := float64(len(r.frames))
		out[c.key+".enc_frame_ms"] = median(byCodec[ci]) * 1e3 / n
		serialWall += n / r.serialFPS[ci]
		parallelWall += median(byCodec[ci])
	}
	total := float64(len(sutCodecs) * len(r.frames))
	out["pipeline.serial_frames_per_s"] = total / serialWall
	if runtime.NumCPU() > 1 && parallelWall > 0 {
		out["pipeline.scaling_efficiency"] = serialWall / parallelWall / float64(parallelWorkers())
	} else {
		// One core cannot show scaling: the metric stays 0 and the run says why.
		fmt.Fprintln(r.e.stderr, "enc_parallel: num_cpu == 1, not a scaling receipt")
	}
	return nil
}

// --- ladder -------------------------------------------------------------------

type ladderRunner struct {
	e      *env
	off    int
	frames []*Frame
	last   [][]rendition // per codec: the last measured ladder
}

// sportPanPeriod is the number of frames after which sport_pan's pitch
// markings repeat (20 px a frame over stripes 192 px and lines 480 px
// apart). Clips that start a whole number of periods apart show different
// turf and crowd but the same structure, so they cost the same to code.
const sportPanPeriod = 48

func newLadder(e *env) *ladderRunner {
	return &ladderRunner{e: e, off: sportPanPeriod * rand.New(rand.NewSource(e.seed)).Intn(8)}
}

func (r *ladderRunner) options() EncoderOptions {
	o := paperOptions(r.e.size.W, r.e.size.H)
	o.IntraPeriod, o.Workers = r.e.size.LadderGOP, 1
	return o
}

func (r *ladderRunner) setup(tr *tracer) error {
	s := r.e.size
	var err error
	if r.frames, err = sutGenerate("sport_pan", s.W, s.H, r.off, s.LadderFrames, tr); err != nil {
		return err
	}
	r.last = make([][]rendition, len(sutCodecs))
	for _, c := range sutCodecs {
		if _, err := sutEncodeLadder(c, r.options(), r.frames[:min(2, len(r.frames))], s.Rungs); err != nil {
			return fmt.Errorf("warm-up ladder %s: %w", c.key, err)
		}
	}
	return nil
}

func (r *ladderRunner) teardown() {}

func (r *ladderRunner) measure(seconds float64, tr *tracer) measurement {
	return measurePasses(seconds, len(sutCodecs), func(cell, id int) opStat {
		c := sutCodecs[cell]
		root := tr.begin("op."+c.key, id, -1)
		t0 := time.Now()
		rends, err := sutEncodeLadder(c, r.options(), r.frames, r.e.size.Rungs)
		wall := time.Since(t0)
		tr.end(root)
		r.last[cell] = rends
		st := opStat{first: wall, failed: err != nil || len(rends) != len(r.e.size.Rungs)}
		for _, rd := range rends {
			st.frames += len(rd.enc.pkts)
			st.bytes += rd.enc.bytes
			st.failed = st.failed || len(rd.enc.pkts) != len(r.frames)
		}
		return st
	})
}

func (r *ladderRunner) verify(tr *tracer) (quality, error) {
	var q quality
	var nbytes int64
	for ci, c := range sutCodecs {
		for _, rd := range r.last[ci] {
			src := make([]*Frame, len(r.frames))
			for i, f := range r.frames {
				src[i] = f
				if rd.rung.W != f.Width || rd.rung.H != f.Height {
					src[i] = sutDownscale(f, rd.rung.W, rd.rung.H)
				}
			}
			got, _, err := sutDecode(c, rd.enc.hdr, rd.enc.pkts, nil, -1, -1)
			if err != nil {
				got = nil
			}
			q.score(r.e, c.key+" rung "+rd.rung.Name, src, got, r.e.size.MinRungPSNR, tr)
			nbytes += rd.enc.bytes
		}
	}
	// The bitrate of one whole ladder (all rungs), averaged over codecs.
	q.kbps = kbpsAt25(nbytes, len(sutCodecs)*len(r.frames))
	return q, nil
}

func (r *ladderRunner) layers(out map[string]float64, m measurement, tr *tracer) error {
	var errSum float64
	n := 0
	for ci, c := range sutCodecs {
		out[c.key+".enc_frame_ms"] = tr.meanMS("op."+c.key) / float64(len(r.frames)*len(r.e.size.Rungs))
		for _, rd := range r.last[ci] {
			if rd.rung.Kbps > 0 {
				got := kbpsAt25(rd.enc.bytes, len(r.frames))
				errSum += math.Abs(got-float64(rd.rung.Kbps)) / float64(rd.rung.Kbps)
				n++
			}
		}
	}
	if n > 0 {
		out["codec.ratectl_kbps_err"] = errSum / float64(n)
	}
	// Seeding is measured on the rung below the top, with the EPZS codec.
	rungs := r.e.size.Rungs
	ratio, err := sutLadderSeededRatio(sutCodecs[1], r.frames, r.e.size.W, r.e.size.H, rungs[len(rungs)-2], r.e.size.LadderGOP)
	if err != nil {
		return err
	}
	out["core.ladder_seeded_ratio"] = ratio
	return nil
}
