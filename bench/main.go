// Command bench is the repository's performance benchmark: six workloads,
// nine end-to-end metrics, and a traced mode that says where the time goes.
// BENCHMARK.json at the repository root declares what it reports; README.md
// in this directory explains the choices.
//
//	bash bench/run.sh                                   every workload, one child process each
//	bash bench/run.sh -workload enc_serial -seed 3      one workload
//	bash bench/run.sh -workload serve_warm -trace 1     the traced run: per-layer metrics and spans
//	bash bench/run.sh -runs 5 -out a.json               keep the results for -compare
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef declares one metric; Bound is set on end-to-end metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports all of them (the contract wants no gaps), so three are defined
// for both kinds of workload:
//
//   - ttfb_p50_ms: request to first body byte (serve); call to first coded
//     packet or decoded frame (codec workloads; the whole call for a ladder).
//   - req_p50_ms: one HTTP response, or one clip encoded or decoded.
//   - mbytes_per_s: coded bytes delivered, produced or consumed per second.
//
// and psnr_db/kbps on the serve workloads come from decoding response bodies.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"frames_per_s", "frames/s", "higher", 0.20},
	{"cpu_ms_per_frame", "ms", "lower", 0.20},
	{"alloc_kb_per_frame", "KiB", "lower", 0.05},
	{"psnr_db", "dB", "higher", 0.02},
	{"kbps", "kbit/s", "lower", 0.05},
	{"ttfb_p50_ms", "ms", "lower", 0.25},
	{"req_p50_ms", "ms", "lower", 0.20},
	{"mbytes_per_s", "MB/s", "higher", 0.20},
}

// perLayer are the traced run's metrics, one name per quantity whatever the
// workload; a metric that does not apply to a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// (K) fixed-input probes of leaf packages.
	add("ns", "lower", "swar.sad16_ns", "swar.sad16max_ns", "swar.sadavg2max_ns", "swar.diffrow_ns", "swar.addclamprow_ns",
		"motion.sad16_scalar_ns", "motion.sadqpel_ns")
	add("us", "lower", "motion.epzs_us_per_mb", "motion.hexagon_us_per_mb")
	add("ms", "lower", "interp.build_hpel_bilin_ms", "interp.build_hpel6_ms")
	add("ns", "lower", "interp.halfpel_ns", "interp.qpel_luma_ns", "interp.chroma_bilin_ns",
		"dct.fwd8_ns", "dct.inv8_ns", "dct.fwd4_ns", "dct.inv4_ns", "dct.satd4_ns",
		"quant.mpeg2_intra_ns", "quant.mpeg2_inter_ns", "quant.mpeg4_inter_ns", "quant.h264_ns",
		"quant.mpeg2_intra_dequant_ns", "quant.mpeg2_inter_dequant_ns", "quant.mpeg4_inter_dequant_ns", "quant.h264_dequant_ns",
		"entropy.cabac_enc_ns_per_bin", "entropy.cabac_dec_ns_per_bin", "entropy.ue_write_ns", "entropy.ue_read_ns",
		"bitstream.write_ns", "bitstream.read_ns")
	add("MB/s", "higher", "bitstream.append_mb_per_s")
	add("ns", "lower", "codec.residual8_ns", "codec.add8clip_ns")
	add("ms", "lower", "frame.downscale_box_ms", "frame.downscale_bilin_ms", "frame.extend_borders_ms")
	add("MB/s", "higher", "container.write_mb_per_s", "container.read_mb_per_s")
	add("us", "lower", "container.gopindex_read_us", "gopcache.get_us")
	add("MB/s", "higher", "gopcache.fill_commit_mb_per_s")
	add("ms", "lower", "gopcache.open_ms_per_100")

	// (P) share of the traced phase's CPU samples whose leaf is in the package.
	for _, l := range append(append([]string{}, layerPackages...), "other") {
		add("share", "lower", l+".cpu_share")
	}

	// (S) spans and counts at layer boundaries.
	for _, c := range sutCodecs {
		add("ms", "lower", c.key+".enc_frame_ms", c.key+".dec_i_ms", c.key+".dec_p_ms", c.key+".dec_b_ms")
	}
	add("ratio", "lower", "codec.ratectl_kbps_err")
	add("ms", "lower", "seqgen.frame_ms", "metrics.psnr_frame_ms",
		"pipeline.chunk_encode_ms", "pipeline.gate_wait_ms", "pipeline.wavefront_wait_ms", "stream.drain_stall_ms")
	add("share", "lower", "pipeline.gate_inline_share")
	add("count", "higher", "pipeline.front_depth_mean")
	add("frames", "lower", "stream.peak_resident_frames")
	add("frames/s", "higher", "pipeline.serial_frames_per_s")
	add("ratio", "higher", "pipeline.scaling_efficiency", "core.ladder_seeded_ratio")
	add("count", "higher", "gopcache.hits")
	add("count", "lower", "gopcache.misses", "gopcache.evictions")
	add("ratio", "higher", "gopcache.hit_ratio")
	add("ms", "lower", "serve.connect_ms", "serve.ttfb_p90_ms", "serve.req_p90_ms", "serve.req_p99_ms",
		"serve.cache_ms", "serve.gen_ms", "serve.enc_ms", "serve.commit_ms", "serve.write_ms", "serve.flight_ms")
	add("count", "lower", "serve.encodes", "serve.rejected_503", "serve.rate_limited")
	add("count", "higher", "serve.bytes_served", "serve.singleflight_shared")
	add("ratio", "higher", "serve.singleflight_collapse_ratio")
	add("ratio", "lower", "slo.warm_miss_rate", "slo.cold_miss_rate")
	add("ms", "lower", "slo.lateness_p95_ms")
	add("MiB", "lower", "proc.peak_rss_mb")
	add("count", "lower", "proc.gc_cycles")
	add("ms", "lower", "proc.gc_pause_ms")
	add("ratio", "higher", "proc.cpu_utilisation")
	add("share", "lower", "trace.overhead_share")
	return defs
}

// metricValue and result are the contract's output shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envInfo is recorded with every output.
type envInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnv() envInfo {
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
	}
}

// gitCommit reads HEAD without running git; outside a work tree (the
// driver's checkouts are plain directories) it reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	return s
}

// toResult attaches units to values; every declared metric must be there.
func toResult(defs []metricDef, values map[string]float64, attempted, failed int) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s: missing or not finite (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return res, nil
}

// runWorkload runs one workload in this process: set-up (repeated while it
// is cheap, so setup_s is a median), the measured phase, the output checks.
// Untraced it reports the end-to-end metrics; traced, the per-layer ones.
func runWorkload(e *env, w workload) (result, error) {
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	r := w.new(e)
	defer r.teardown()
	var setups []float64
	for spent := 0.0; ; {
		t0 := time.Now()
		if err := r.setup(tr); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(t0).Seconds()
		setups = append(setups, d)
		spent += d
		if len(setups) == 3 || spent+d > e.size.SetupBudget.Seconds() {
			break
		}
		r.teardown()
	}

	if !e.trace {
		m := r.measure(e.seconds, nil)
		q, err := r.verify(nil)
		if err != nil {
			return result{}, fmt.Errorf("%s checks: %w", w.name, err)
		}
		return toResult(endToEnd, map[string]float64{
			"setup_s":            median(setups),
			"frames_per_s":       m.framesPerS,
			"cpu_ms_per_frame":   m.cpuMSPerFrame,
			"alloc_kb_per_frame": m.allocKBPerFrame,
			"psnr_db":            q.psnrDB,
			"kbps":               q.kbps,
			"ttfb_p50_ms":        m.classP50MS(opFirst),
			"req_p50_ms":         m.classP50MS(opWall),
			"mbytes_per_s":       m.mbytesPerS,
		}, len(m.ops), m.failed()+q.failed)
	}

	// The traced run: a shorter untraced phase first, so the cost of
	// tracing is itself a number, then the traced phase under the profiler.
	base := r.measure(0.3*e.seconds, nil)
	var traced measurement
	leaf, err := profileCPU(func() { traced = r.measure(0.5*e.seconds, tr) })
	if err != nil {
		return result{}, err
	}
	q, err := r.verify(tr)
	if err != nil {
		return result{}, fmt.Errorf("%s checks: %w", w.name, err)
	}
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	if err := r.layers(out, traced, tr); err != nil {
		return result{}, fmt.Errorf("%s per-layer metrics: %w", w.name, err)
	}
	for layer, share := range cpuShares(leaf, layerPackages) {
		out[layer+".cpu_share"] = share
	}
	probeDir, err := os.MkdirTemp(e.workDir, "probes-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(probeDir)
	probes, probeErr, err := sutProbes(e.size.W, e.size.H, probeDir)
	if err != nil {
		return result{}, err
	}
	for _, p := range probes {
		out[p.name] = runProbe(p, e.size.ProbeTime)
	}
	if *probeErr != nil {
		return result{}, fmt.Errorf("probes: %w", *probeErr)
	}
	out["seqgen.frame_ms"] = tr.meanMS("seqgen.frame")
	out["metrics.psnr_frame_ms"] = tr.meanMS("metrics.psnr_frame")
	out["proc.peak_rss_mb"] = peakRSSMB()
	out["proc.gc_cycles"] = float64(traced.gcCycles)
	out["proc.gc_pause_ms"] = ms(traced.gcPause)
	if traced.wall > 0 {
		out["proc.cpu_utilisation"] = traced.cpu.Seconds() / traced.wall.Seconds() / float64(runtime.GOMAXPROCS(0))
	}
	if base.framesPerS > 0 {
		out["trace.overhead_share"] = 1 - traced.framesPerS/base.framesPerS
	}
	res, err := toResult(perLayer, out, len(base.ops)+len(traced.ops), base.failed()+traced.failed()+q.failed)
	if err != nil {
		return res, err
	}
	path := filepath.Join(e.workDir, "trace_"+w.name+".json")
	if err := tr.write(path, traceFile{Workload: w.name, Env: currentEnv(), Metrics: res.Metrics}); err != nil {
		return res, err
	}
	fmt.Fprintf(e.stderr, "spans and per-layer metrics written to %s\n", path)
	return res, nil
}

// runProbe times p.fn on its fixed input: the batch size is doubled until a
// batch lasts a fifth of budget, then the median of five batches is kept.
func runProbe(p probe, budget time.Duration) float64 {
	batch := func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p.fn()
		}
		return time.Since(t0)
	}
	n := 1
	for batch(n) < budget/5 && n < 1<<26 {
		n *= 2
	}
	var perCall []float64
	for i := 0; i < 5; i++ {
		perCall = append(perCall, float64(batch(n))/float64(n))
	}
	ns := median(perCall)
	switch p.unit {
	case "MB/s":
		return p.items / (ns / 1e9) / 1e6
	case "us":
		return ns / p.items / 1e3
	case "ms":
		return ns / p.items / 1e6
	}
	return ns / p.items
}

// printResult writes the human-readable table and, as the last line, the
// contract's JSON object.
func printResult(w io.Writer, name string, seed int64, defs []metricDef, res result) error {
	env := currentEnv()
	fmt.Fprintf(w, "workload %s  seed %d  num_cpu %d  GOMAXPROCS %d  %s  commit %s\n",
		name, seed, env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runRecord and runDoc are what -out keeps and -compare reads.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

type runDoc struct {
	Env  envInfo     `json:"env"`
	Runs []runRecord `json:"runs"`
}

// runAll runs every workload in a fresh child process each, so that peak
// RSS and allocation totals do not carry over from one to the next.
func runAll(self string, seed int64, seconds float64, trace, runs int, outPath string, stdout, stderr io.Writer) error {
	doc := runDoc{Env: currentEnv()}
	bad := 0
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
			var buf bytes.Buffer
			cmd.Stdout = io.MultiWriter(stdout, &buf)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			var last string
			for sc := bufio.NewScanner(&buf); sc.Scan(); {
				last = sc.Text()
			}
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				return fmt.Errorf("%s: last line is not a result: %w", w.name, err)
			}
			if !res.Correct {
				bad++
			}
			doc.Runs = append(doc.Runs, runRecord{Workload: w.name, Seed: seed, Trace: trace, Result: res})
		}
	}
	if outPath != "" {
		b, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, b, 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs had failed operations", bad)
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all, each in a child process)")
	seed := fs.Int64("seed", 1, "clip start offsets and request order")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics, spans, CPU profile)")
	runs := fs.Int("runs", 1, "with no -workload: repeat every workload this many times")
	outPath := fs.String("out", "", "with no -workload: write all results to this file")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two files"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if *name == "" {
		if err := runAll(self, *seed, *seconds, *trace, *runs, *outPath, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		e := &env{seed: *seed, seconds: *seconds, trace: *trace != 0, size: fullSize,
			workDir: filepath.Dir(self), stderr: stderr}
		defs := endToEnd
		if e.trace {
			defs = perLayer
		}
		res, err := runWorkload(e, w)
		if err != nil {
			return fail(err)
		}
		if err := printResult(stdout, w.name, *seed, defs, res); err != nil {
			return fail(err)
		}
		if !res.Correct {
			return fail(fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted))
		}
		return 0
	}
	return fail(fmt.Errorf("unknown workload %q", *name))
}
