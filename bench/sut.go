package main

// sut.go is the adapter between the harness and the system under test: it
// is the only file that imports hdvideobench or its internal packages, so
// the API surface the benchmark pins is this file's import block and call
// sites. Everything is measured from outside, by timing calls into public
// functions.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	hd "hdvideobench"
	"hdvideobench/internal/bitstream"
	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/core"
	"hdvideobench/internal/dct"
	"hdvideobench/internal/entropy"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/gopcache"
	"hdvideobench/internal/interp"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/motion"
	"hdvideobench/internal/obs"
	"hdvideobench/internal/quant"
	"hdvideobench/internal/serve"
	"hdvideobench/internal/slo"
	"hdvideobench/internal/swar"
)

type (
	Frame  = hd.Frame
	Packet = hd.Packet
	Header = hd.StreamHeader
	Codec  = hd.Codec

	EncoderOptions = hd.EncoderOptions
)

// sutCodec names one codec three ways: the library value, the lower-case
// key used in metric names and the codec= query parameter.
type sutCodec struct {
	id  Codec
	key string
}

var sutCodecs = []sutCodec{{hd.MPEG2, "mpeg2"}, {hd.MPEG4, "mpeg4"}, {hd.H264, "h264"}}

// layerPackages are the packages CPU-profile samples are attributed to;
// everything else (net/http, syscall, the harness itself) is "other".
var layerPackages = []string{
	"swar", "motion", "interp", "dct", "quant", "entropy", "bitstream",
	"mpeg2", "mpeg4", "h264", "codec", "frame", "seqgen", "runtime",
}

// sutGenerate renders frames [off, off+n) of a named sequence.
func sutGenerate(seq string, w, h, off, n int, tr *tracer) ([]*Frame, error) {
	s, err := hd.ParseSequence(seq)
	if err != nil {
		return nil, err
	}
	gen := hd.NewSequence(s, w, h)
	frames := make([]*Frame, n)
	for i := range frames {
		sp := tr.begin("seqgen.frame", -1, -1)
		frames[i] = gen.Frame(off + i)
		tr.end(sp)
	}
	return frames, nil
}

// encoded is one coded clip.
type encoded struct {
	hdr   Header
	pkts  []Packet
	bytes int64 // payload bytes
}

func payloadBytes(pkts []Packet) int64 {
	var n int64
	for _, p := range pkts {
		n += int64(len(p.Payload))
	}
	return n
}

// sutEncode is NewEncoder + EncodeFrames, with the per-frame loop spelled
// out so the first packet's arrival and (traced) each Encode call can be
// timed. first is the time from the call to the first coded packet.
func sutEncode(c sutCodec, opts EncoderOptions, frames []*Frame, tr *tracer, op, parent int) (out encoded, first time.Duration, err error) {
	t0 := time.Now()
	enc, err := hd.NewEncoder(c.id, opts)
	if err != nil {
		return out, 0, err
	}
	collect := func(ps []Packet) {
		if first == 0 && len(ps) > 0 {
			first = time.Since(t0)
		}
		out.pkts = append(out.pkts, ps...)
	}
	for _, f := range frames {
		sp := tr.begin(c.key+".enc_frame", op, parent)
		ps, err := enc.Encode(f)
		tr.end(sp)
		if err != nil {
			return out, first, err
		}
		collect(ps)
	}
	sp := tr.begin(c.key+".enc_flush", op, parent)
	ps, err := enc.Flush()
	tr.end(sp)
	if err != nil {
		return out, first, err
	}
	collect(ps)
	out.hdr = enc.Header()
	out.bytes = payloadBytes(out.pkts)
	return out, first, nil
}

// sutDecode is NewDecoder + DecodePackets with the same per-packet loop;
// traced, each Decode call is a span named after the packet's frame type.
func sutDecode(c sutCodec, hdr Header, pkts []Packet, tr *tracer, op, parent int) (frames []*Frame, first time.Duration, err error) {
	t0 := time.Now()
	dec, err := hd.NewDecoder(hdr, true)
	if err != nil {
		return nil, 0, err
	}
	for _, p := range pkts {
		name := ""
		if tr != nil {
			switch p.Type {
			case hd.FrameI:
				name = c.key + ".dec_i"
			case hd.FrameP:
				name = c.key + ".dec_p"
			default:
				name = c.key + ".dec_b"
			}
		}
		sp := tr.begin(name, op, parent)
		fs, err := dec.Decode(p)
		tr.end(sp)
		if err != nil {
			return nil, first, err
		}
		if first == 0 && len(fs) > 0 {
			first = time.Since(t0)
		}
		frames = append(frames, fs...)
	}
	return append(frames, dec.Flush()...), first, nil
}

// sutDecodeContainer parses an HDVB container and decodes it.
func sutDecodeContainer(b []byte) ([]*Frame, error) {
	hdr, pkts, err := hd.ReadStream(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	frames, _, err := sutDecode(sutCodec{}, hdr, pkts, nil, -1, -1)
	return frames, err
}

// sutCountPackets walks a container and returns its packet count and the
// frame count its header declares.
func sutCountPackets(b []byte) (packets, declared int, err error) {
	sr, err := container.NewStreamReader(bytes.NewReader(b))
	if err != nil {
		return 0, 0, err
	}
	for {
		if _, err := sr.Next(); err == io.EOF {
			return sr.Count(), sr.Header().Frames, nil
		} else if err != nil {
			return sr.Count(), sr.Header().Frames, err
		}
	}
}

func sutPSNR(ref, dist *Frame) float64 { return hd.PSNR(ref, dist) }

func sutDownscale(src *Frame, w, h int) *Frame { return hd.DownscaleFrame(src, w, h) }

// sutStreamHeaderBytes is the length of the stream header that opens every
// HDVB container, measured by writing one.
var sutStreamHeaderBytes = func() int {
	var buf bytes.Buffer
	if _, err := container.NewStreamWriter(&buf, Header{Codec: container.CodecMPEG2, Width: 16, Height: 16, FPSNum: 25, FPSDen: 1}); err != nil {
		panic(err)
	}
	return buf.Len()
}()

// frameSource feeds a frame slice to the streaming entry points.
func frameSource(frames []*Frame) func() (*Frame, error) {
	i := 0
	return func() (*Frame, error) {
		if i >= len(frames) {
			return nil, io.EOF
		}
		i++
		return frames[i-1], nil
	}
}

// sutEncodeStream is the one-call streaming encode (untraced path).
func sutEncodeStream(w io.Writer, c sutCodec, opts EncoderOptions, frames []*Frame) (int, error) {
	stats, err := hd.EncodeStream(w, c.id, opts, len(frames), frameSource(frames))
	return stats.Frames, err
}

// sutEncodeStreamTraced produces the same bytes as sutEncodeStream but
// drives the StreamEncoder and the container.StreamWriter itself, so the
// drain and every packet write are spans and the encoder's peak residency
// can be read afterwards.
func sutEncodeStreamTraced(w io.Writer, c sutCodec, opts EncoderOptions, frames []*Frame, tr *tracer, op, parent int) (n, peakResident int, err error) {
	enc, err := hd.NewStreamEncoder(c.id, opts)
	if err != nil {
		return 0, 0, err
	}
	hdr := enc.Header()
	hdr.Frames = len(frames)
	sw, err := container.NewStreamWriter(w, hdr)
	if err != nil {
		enc.Abort()
		enc.Close()
		return 0, 0, err
	}
	feedErr := make(chan error, 1)
	go func() {
		var werr error
		for _, f := range frames {
			if werr = enc.Write(f); werr != nil {
				break
			}
		}
		if cerr := enc.Close(); werr == nil {
			werr = cerr
		}
		feedErr <- werr
	}()
	for {
		sp := tr.begin("stream.read_packet", op, parent)
		p, rerr := enc.ReadPacket()
		tr.end(sp)
		if rerr == io.EOF {
			break
		}
		if rerr == nil {
			sp = tr.begin("container.write_packet", op, parent)
			rerr = sw.WritePacket(p)
			tr.end(sp)
		}
		if rerr != nil {
			enc.Abort()
			err = rerr
			break
		}
	}
	if ferr := <-feedErr; err == nil {
		err = ferr
	}
	return sw.Count(), enc.PeakResident(), err
}

// ladderRung is one rendition of the ladder workload.
type ladderRung struct {
	Name string
	W, H int
	Kbps int
}

// rendition is one finished ladder rung.
type rendition struct {
	rung ladderRung
	enc  encoded
}

func sutEncodeLadder(c sutCodec, opts EncoderOptions, frames []*Frame, rungs []ladderRung) ([]rendition, error) {
	lr := make([]hd.LadderRung, len(rungs))
	for i, r := range rungs {
		lr[i] = hd.LadderRung{Name: r.Name, Width: r.W, Height: r.H, Kbps: r.Kbps}
	}
	rends, err := hd.EncodeLadder(c.id, opts, frames, lr)
	if err != nil {
		return nil, err
	}
	out := make([]rendition, len(rends))
	for i, r := range rends {
		out[i] = rendition{
			rung: ladderRung{Name: r.Rung.Name, W: r.Rung.Width, H: r.Rung.Height, Kbps: r.Rung.Kbps},
			enc:  encoded{hdr: r.Header, pkts: r.Packets, bytes: payloadBytes(r.Packets)},
		}
	}
	return out, nil
}

// sutLadderSeededRatio measures what motion-hint seeding buys the rung
// below the top: the top rung is analysed once (MotionTap), then the lower
// rung is encoded cold and seeded (MotionHints); the ratio is cold wall
// time over seeded wall time, > 1 when the seed helps.
func sutLadderSeededRatio(c sutCodec, mezz []*Frame, w, h int, rung ladderRung, gop int) (float64, error) {
	top := codec.Default(w, h)
	top.Kernels = kernel.SWAR
	top.IntraPeriod = gop
	fields := map[int]*motion.Field{}
	var mu sync.Mutex
	top.MotionTap = func(pts int, f *motion.Field) {
		mu.Lock()
		fields[pts] = f
		mu.Unlock()
	}
	if _, _, err := core.EncodeSequenceParallel(c.id, top, mezz, 1); err != nil {
		return 0, err
	}
	small := make([]*Frame, len(mezz))
	for i, f := range mezz {
		small[i] = frame.DownscaleNew(f, rung.W, rung.H)
	}
	var wall [2]time.Duration
	for i, seeded := range []bool{false, true} {
		cfg := codec.Default(rung.W, rung.H)
		cfg.Kernels = kernel.SWAR
		cfg.IntraPeriod = gop
		if seeded {
			cfg.MotionHints = func(pts int) *motion.Field { return fields[pts] }
		}
		t0 := time.Now()
		if _, _, err := core.EncodeSequenceParallel(c.id, cfg, small, 1); err != nil {
			return 0, err
		}
		wall[i] = time.Since(t0)
	}
	return wall[0].Seconds() / wall[1].Seconds(), nil
}

// --- pipeline collector -------------------------------------------------------

// pipelineStats reads back the obs.Collector the harness threads through
// EncoderOptions on traced enc_parallel runs.
type pipelineStats struct {
	col *obs.Collector
}

func newPipelineStats() *pipelineStats {
	reg := obs.NewRegistry()
	gate := reg.Counter("hdvbench_gate_slices_total", "Slice jobs by dispatch mode.", "mode")
	return &pipelineStats{col: &obs.Collector{
		ChunkEncode:   reg.Histogram("hdvbench_chunk_encode_seconds", "Per-chunk encode wall time.", nil).With(),
		DrainStall:    reg.Histogram("hdvbench_drain_stall_seconds", "Reader wait on the ordered drain.", nil).With(),
		QueueDepth:    reg.Gauge("hdvbench_chunk_queue_depth", "Chunks submitted and not yet coded.").With(),
		GateWait:      reg.Histogram("hdvbench_gate_wait_seconds", "Slice-gate wait for spawned stragglers.", nil).With(),
		GateSpawned:   gate.With("spawned"),
		GateInline:    gate.With("inline"),
		WavefrontWait: reg.Histogram("hdvbench_wavefront_wait_seconds", "Parked waits of wavefront row coders.", nil).With(),
		FrontDepth:    reg.Histogram("hdvbench_wavefront_front_depth", "Concurrent row coders per wavefront launch.", nil).With(),
	}}
}

func histMean(h *obs.Histogram) float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// metrics reports the collector's content under the per-layer names.
func (p *pipelineStats) metrics(out map[string]float64) {
	c := p.col
	out["pipeline.chunk_encode_ms"] = histMean(c.ChunkEncode) * 1e3
	out["pipeline.gate_wait_ms"] = histMean(c.GateWait) * 1e3
	out["pipeline.wavefront_wait_ms"] = histMean(c.WavefrontWait) * 1e3
	out["pipeline.front_depth_mean"] = histMean(c.FrontDepth)
	out["stream.drain_stall_ms"] = histMean(c.DrainStall) * 1e3
	if jobs := c.GateInline.Value() + c.GateSpawned.Value(); jobs > 0 {
		out["pipeline.gate_inline_share"] = c.GateInline.Value() / jobs
	}
}

// --- serving tier --------------------------------------------------------------

// sutServer builds the production handler in-process, with the operator's
// /debug/ mux beside it (the request ring is where the server reports the
// phases of completed requests).
func sutServer(cacheDir string, cacheBytes int64, concurrent int) (http.Handler, error) {
	s, err := serve.New(serve.Config{
		Workers:       1,
		MaxConcurrent: concurrent,
		CacheDir:      cacheDir,
		CacheBytes:    cacheBytes,
	})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/", s.DebugRoutes())
	mux.Handle("/", s.Routes())
	return mux, nil
}

// sutParseMetrics flattens a /metrics scrape into series -> value.
func sutParseMetrics(text []byte) (map[string]float64, error) {
	fams, err := obs.ParseText(text)
	if err != nil {
		return nil, err
	}
	return obs.Values(fams), nil
}

// sloResult is the part of an slo.Run the per-layer metrics use.
type sloResult struct {
	missRate      float64
	latenessP95MS float64
	errors        int
}

// sutSLO streams url to paced viewers at 25 fps (open loop, deadlines
// anchored at frame 0).
func sutSLO(url string, viewers int) sloResult {
	r := slo.Run(context.Background(), slo.RunConfig{URL: url, Clients: viewers, FPS: 25})
	return sloResult{missRate: r.MissRate, latenessP95MS: r.FrameLatency.P95, errors: r.Errors}
}

// --- fixed-input probes of the leaf packages -----------------------------------

// probe times one exported leaf function on fixed input. unit is "ns", "us"
// or "ms" (time per item) or "MB/s" (items are bytes); items is how many
// items one call of fn processes.
type probe struct {
	name  string
	unit  string
	items float64
	fn    func()
}

// sink keeps probe results alive so calls are not optimised away.
var sink int

// sutProbes builds every probe. w×h is the picture size of the frame-sized
// probes; dir is scratch space for the gopcache probes. The probes that do
// I/O leave their first failure in *failed.
func sutProbes(w, h int, dir string) (probes []probe, failed *error, err error) {
	failed = new(error)
	check := func(err error) {
		if err != nil && *failed == nil {
			*failed = err
		}
	}
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	const stride = 64
	const big = 1 << 30
	a, b, cur := fill(stride*24), fill(stride*24), fill(16*16)
	res16 := make([]int32, 16)
	for i := range res16 {
		res16[i] = int32(rng.Intn(64) - 32)
	}
	row := make([]byte, 16)
	var src8 [64]int32
	for i := range src8 {
		src8[i] = int32(rng.Intn(255) - 127)
	}
	var src4 [16]int32
	copy(src4[:], src8[:])
	dst := make([]byte, 16*16)

	// A textured reference picture with borders and both half-pel plane
	// sets, and a current block displaced from it.
	ref := frame.NewPadded(w, h, codec.RefPad)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			ref.Y[ref.YOrigin+r*ref.YStride+c] = byte((c*7+r*13)%251) ^ byte(r)
		}
	}
	ref.ExtendBorders()
	interp.BuildHalfPel6(ref, kernel.SWAR)
	bx, by := (w/2)&^15, (h/2)&^15
	so := ref.YOrigin + by*ref.YStride + bx
	curBlk := make([]byte, 16*16)
	for r := 0; r < 16; r++ {
		copy(curBlk[r*16:r*16+16], ref.Y[so+(r+2)*ref.YStride-3:])
	}
	for i := range curBlk {
		curBlk[i] += byte(i * 37 % 7) // residual, so no candidate scores zero and searches run their course
	}
	est := &motion.Estimator{
		Kern: kernel.SWAR,
		Cur:  curBlk, CurStride: 16,
		Ref: ref.Y, RefOrigin: ref.YOrigin, RefStride: ref.YStride,
		PosX: bx, PosY: by, W: 16, H: 16,
		Lambda: 4,
	}
	est.Window(24, w, h, ref.Pad)
	preds := []motion.MV{{X: 1, Y: -1}} // true motion is (-3, 2): the predictor is near, not on it
	var qp interp.QPel
	build := frame.NewPadded(w, h, codec.RefPad)
	build.CopyFrom(ref)
	build.ExtendBorders()
	half := frame.New(w/2&^1, h/2&^1)
	odd := frame.New((w*9/16)&^1, (h*4/5)&^1) // 720p -> 720x576: the non-integer ladder ratio
	plain := frame.New(w, h)
	plain.CopyFrom(ref)

	// Entropy and bitstream inputs.
	const nbins = 4096
	bins := fill(nbins)
	ctx := make([]entropy.Prob, 8)
	cabac := entropy.NewEncoder(nbins)
	encodeBins := func() []byte {
		entropy.ResetProbs(ctx)
		cabac.Reset()
		for i, v := range bins {
			bit := 0
			if v < 64 { // skewed, so the adaptive contexts have something to learn
				bit = 1
			}
			cabac.EncodeBit(&ctx[i&7], bit)
		}
		return cabac.Finish()
	}
	coded := append([]byte(nil), encodeBins()...)
	cdec := entropy.NewDecoder(coded)
	const nvals = 1024
	vals := make([]uint32, nvals)
	for i := range vals {
		vals[i] = uint32(rng.Intn(200))
	}
	bw := bitstream.NewWriter(nvals * 4)
	writeUE := func() {
		bw.Reset()
		for _, v := range vals {
			entropy.WriteUE(bw, v)
		}
	}
	writeUE()
	ueBytes := append([]byte(nil), bw.Bytes()...)
	br := bitstream.NewReader(ueBytes)
	writeBits := func() {
		bw.Reset()
		for _, v := range vals {
			bw.WriteBits(uint64(v), uint(1+v%11))
		}
	}
	writeBits()
	bitBytes := append([]byte(nil), bw.Bytes()...)
	appendSrc := bitstream.NewWriter(64 << 10)
	for i := 0; i < (64<<10)/4; i++ {
		appendSrc.WriteBits(uint64(rng.Uint32()), 32)
	}
	appendDst := bitstream.NewWriter(65 << 10)

	// Container inputs: twelve 64 KiB packets.
	chdr := Header{Codec: container.CodecMPEG2, Width: w, Height: h, FPSNum: 25, FPSDen: 1, Frames: 12}
	cpkts := make([]Packet, 12)
	for i := range cpkts {
		cpkts[i] = Packet{Type: hd.FrameP, DisplayIndex: i, Payload: fill(64 << 10)}
	}
	cpkts[0].Type = hd.FrameI
	var cbuf bytes.Buffer
	writeContainer := func(dst io.Writer) {
		sw, err := container.NewStreamWriter(dst, chdr)
		if err != nil {
			check(err)
			return
		}
		for _, p := range cpkts {
			check(sw.WritePacket(p))
		}
	}
	writeContainer(&cbuf)
	cbytes := append([]byte(nil), cbuf.Bytes()...)
	idx := container.GOPIndex{Size: int64(len(cbytes))}
	for i := 0; i < 16; i++ {
		idx.Entries = append(idx.Entries, container.GOPIndexEntry{Offset: int64(32 + i*1000), Frame: i * 4})
	}
	indexed := container.AppendGOPIndex(append([]byte(nil), cbytes...), idx)

	// Cache inputs: one cache holding a single entry for Get, one holding
	// a hundred small entries for Open.
	cache, err := gopcache.Open(filepath.Join(dir, "probe-cache"), 0)
	if err != nil {
		return nil, nil, err
	}
	commit := func(c *gopcache.Cache, key gopcache.Key, body []byte) error {
		f, err := c.NewFill(key)
		if err != nil {
			return err
		}
		if _, err := f.Write(body); err != nil {
			f.Abort()
			return err
		}
		ent, err := f.Commit(container.GOPIndex{Size: int64(len(body))})
		if err != nil {
			return err
		}
		return ent.Close()
	}
	getKey := gopcache.Key{Codec: "probe", Seq: "get"}
	if err := commit(cache, getKey, cbytes[:64<<10]); err != nil {
		return nil, nil, err
	}
	fillKey := gopcache.Key{Codec: "probe", Seq: "fill"}
	mib := fill(1 << 20)
	manyDir := filepath.Join(dir, "probe-cache-100")
	many, err := gopcache.Open(manyDir, 0)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < 100; i++ {
		if err := commit(many, gopcache.Key{Codec: "probe", Seq: "open", Q: i}, cbytes[:4<<10]); err != nil {
			return nil, nil, err
		}
	}

	var blk8 [64]int32
	var blk4 [16]int32
	q8 := func(name string, fn func(*[64]int32)) probe {
		return probe{name, "ns", 1, func() { blk8 = src8; fn(&blk8) }}
	}
	q4 := func(name string, fn func(*[16]int32)) probe {
		return probe{name, "ns", 1, func() { blk4 = src4; fn(&blk4) }}
	}
	h264QP := quant.H264QPFromMPEG(5)

	return []probe{
		{"swar.sad16_ns", "ns", 1, func() { sink += swar.SAD16(a, stride, b, stride, 16) }},
		{"swar.sad16max_ns", "ns", 1, func() { sink += swar.SAD16Max(a, stride, b, stride, 16, big) }},
		{"swar.sadavg2max_ns", "ns", 1, func() { sink += swar.SADAvg2Max(cur, 16, a, stride, b, stride, 16, 16, big) }},
		{"swar.diffrow_ns", "ns", 1, func() { swar.DiffRow(res16, a, b, 16) }},
		{"swar.addclamprow_ns", "ns", 1, func() { swar.AddClampRow(row, a, res16, 16) }},

		{"motion.sad16_scalar_ns", "ns", 1, func() { sink += motion.SADBlockMax(kernel.Scalar, a, stride, b, stride, 16, 16, big) }},
		{"motion.sadqpel_ns", "ns", 1, func() { sink += motion.SADQPel(kernel.SWAR, curBlk, 16, ref, so, 16, 16, 1, 3, big) }},
		{"motion.epzs_us_per_mb", "us", 1, func() { sink += est.EPZS(preds, 0).Cost }},
		{"motion.hexagon_us_per_mb", "us", 1, func() { sink += est.HexagonSearch(motion.MV{}).Cost }},

		{"interp.build_hpel_bilin_ms", "ms", 1, func() { build.HpelBilin = nil; interp.BuildHalfPelBilin(build, kernel.SWAR) }},
		{"interp.build_hpel6_ms", "ms", 1, func() { build.Hpel6 = nil; interp.BuildHalfPel6(build, kernel.SWAR) }},
		{"interp.halfpel_ns", "ns", 1, func() { interp.HalfPel(dst, 16, ref.Y[so:], ref.YStride, 16, 16, 1, 1, kernel.SWAR) }},
		{"interp.qpel_luma_ns", "ns", 1, func() { qp.Luma(dst, 16, ref.Y, so, ref.YStride, 16, 16, 1, 3, kernel.SWAR) }},
		{"interp.chroma_bilin_ns", "ns", 1, func() { interp.ChromaBilin(dst, 8, ref.Y[so:], ref.YStride, 8, 8, 3, 5, kernel.SWAR) }},

		q8("dct.fwd8_ns", dct.Forward8),
		q8("dct.inv8_ns", dct.Inverse8),
		q4("dct.fwd4_ns", dct.Forward4),
		q4("dct.inv4_ns", dct.Inverse4),
		q4("dct.satd4_ns", func(b *[16]int32) { sink += int(dct.SATD4(b)) }),

		q8("quant.mpeg2_intra_ns", func(b *[64]int32) { sink += quant.Mpeg2QuantIntra(b, 5) }),
		q8("quant.mpeg2_inter_ns", func(b *[64]int32) { sink += quant.Mpeg2QuantInter(b, 5) }),
		q8("quant.mpeg4_inter_ns", func(b *[64]int32) { sink += quant.Mpeg4QuantInter(b, 5) }),
		q4("quant.h264_ns", func(b *[16]int32) { sink += quant.H264Quant(b, h264QP, false) }),
		q8("quant.mpeg2_intra_dequant_ns", func(b *[64]int32) { quant.Mpeg2DequantIntra(b, 5) }),
		q8("quant.mpeg2_inter_dequant_ns", func(b *[64]int32) { quant.Mpeg2DequantInter(b, 5) }),
		q8("quant.mpeg4_inter_dequant_ns", func(b *[64]int32) { quant.Mpeg4DequantInter(b, 5) }),
		q4("quant.h264_dequant_ns", func(b *[16]int32) { quant.H264Dequant(b, h264QP) }),

		{"entropy.cabac_enc_ns_per_bin", "ns", nbins, func() { sink += len(encodeBins()) }},
		{"entropy.cabac_dec_ns_per_bin", "ns", nbins, func() {
			entropy.ResetProbs(ctx)
			cdec.Reset(coded)
			for i := 0; i < nbins; i++ {
				sink += cdec.DecodeBit(&ctx[i&7])
			}
		}},
		{"entropy.ue_write_ns", "ns", nvals, writeUE},
		{"entropy.ue_read_ns", "ns", nvals, func() {
			br.Reset(ueBytes)
			for i := 0; i < nvals; i++ {
				sink += int(entropy.ReadUE(br))
			}
		}},
		{"bitstream.write_ns", "ns", nvals, writeBits},
		{"bitstream.read_ns", "ns", nvals, func() {
			br.Reset(bitBytes)
			for _, v := range vals {
				sink += int(br.ReadBits(uint(1 + v%11)))
			}
		}},
		{"bitstream.append_mb_per_s", "MB/s", float64(appendSrc.Len()), func() {
			appendDst.Reset()
			appendDst.WriteBits(5, 3) // misalign so the append has to shift
			appendDst.AppendWriter(appendSrc)
		}},

		{"codec.residual8_ns", "ns", 1, func() { codec.Residual8(&blk8, a, 0, stride, b, 0, stride, kernel.SWAR) }},
		{"codec.add8clip_ns", "ns", 1, func() { codec.Add8Clip(dst, 0, 16, a, 0, stride, &src8, kernel.SWAR) }},

		{"frame.downscale_box_ms", "ms", 1, func() { frame.Downscale(half, plain) }},
		{"frame.downscale_bilin_ms", "ms", 1, func() { frame.Downscale(odd, plain) }},
		{"frame.extend_borders_ms", "ms", 1, func() { build.ExtendBorders() }},

		{"container.write_mb_per_s", "MB/s", float64(len(cbytes)), func() { cbuf.Reset(); writeContainer(&cbuf) }},
		{"container.read_mb_per_s", "MB/s", float64(len(cbytes)), func() {
			n, _, err := sutCountPackets(cbytes)
			check(err)
			sink += n
		}},
		{"container.gopindex_read_us", "us", 1, func() {
			got, err := container.ReadGOPIndexTrailer(bytes.NewReader(indexed), int64(len(indexed)))
			check(err)
			sink += len(got.Entries)
		}},

		{"gopcache.get_us", "us", 1, func() {
			if ent, ok := cache.Get(getKey); ok {
				ent.Close()
			} else {
				check(errors.New("gopcache probe: entry vanished"))
			}
		}},
		{"gopcache.fill_commit_mb_per_s", "MB/s", float64(len(mib)), func() {
			check(commit(cache, fillKey, mib))
		}},
		{"gopcache.open_ms_per_100", "ms", 1, func() {
			c, err := gopcache.Open(manyDir, 0)
			check(err)
			if c != nil {
				sink += c.Stats().Entries
			}
		}},
	}, failed, nil
}
