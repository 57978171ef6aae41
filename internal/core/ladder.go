package core

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/motion"
	"hdvideobench/internal/obs"
	"hdvideobench/internal/pipeline"
	"hdvideobench/internal/stream"
)

// LadderRung is one output rendition of a ladder encode: a target
// geometry plus an optional bitrate. Kbps > 0 selects rate-targeted
// coding for that rung (codec.Config.TargetKbps); 0 keeps constant-Q.
type LadderRung struct {
	Name          string
	Width, Height int
	Kbps          int
}

// LadderRendition is one finished rung: its coded packets and the
// stream header that decodes them.
type LadderRendition struct {
	Rung    LadderRung
	Header  container.Header
	Packets []container.Packet
}

// ParseLadder parses a rung list like "240p,576p@1200,720p" — comma-
// separated resolution names (canonical or alias, see ResolutionByName),
// each optionally suffixed with "@kbps" for a rate-targeted rung — and
// validates it against the mezzanine geometry.
func ParseLadder(spec string, mezzW, mezzH int) ([]LadderRung, error) {
	parts := strings.Split(spec, ",")
	rungs := make([]LadderRung, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("core: empty rung in ladder %q", spec)
		}
		name := p
		kbps := 0
		if i := strings.IndexByte(p, '@'); i >= 0 {
			name = p[:i]
			v, err := strconv.Atoi(p[i+1:])
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("core: invalid rung bitrate %q (want e.g. 576p@1200)", p)
			}
			kbps = v
		}
		r, err := ResolutionByName(name)
		if err != nil {
			return nil, err
		}
		rungs = append(rungs, LadderRung{Name: r.Name, Width: r.Width, Height: r.Height, Kbps: kbps})
	}
	if err := ValidateLadder(rungs, mezzW, mezzH); err != nil {
		return nil, err
	}
	return rungs, nil
}

// ValidateLadder checks a rung list against the mezzanine geometry:
// at least one rung, multiple-of-16 dimensions, no rung exceeding the
// mezzanine in either dimension (hints flow down the ladder only, and
// there is no upscaler), and no duplicate geometries.
func ValidateLadder(rungs []LadderRung, mezzW, mezzH int) error {
	if len(rungs) == 0 {
		return fmt.Errorf("core: ladder needs at least one rung")
	}
	seen := make(map[[2]int]bool, len(rungs))
	for _, r := range rungs {
		if r.Width <= 0 || r.Height <= 0 || r.Width%16 != 0 || r.Height%16 != 0 {
			return fmt.Errorf("core: ladder rung %s: dimensions %dx%d must be positive multiples of 16",
				r.Name, r.Width, r.Height)
		}
		if r.Width > mezzW || r.Height > mezzH {
			return fmt.Errorf("core: ladder rung %s (%dx%d) exceeds mezzanine %dx%d",
				r.Name, r.Width, r.Height, mezzW, mezzH)
		}
		if r.Kbps < 0 {
			return fmt.Errorf("core: ladder rung %s: bitrate %d kbps must be >= 0", r.Name, r.Kbps)
		}
		key := [2]int{r.Width, r.Height}
		if seen[key] {
			return fmt.Errorf("core: duplicate ladder rung %s (%dx%d)", r.Name, r.Width, r.Height)
		}
		seen[key] = true
	}
	return nil
}

// EncodeLadderStream encodes one mezzanine sequence, pulled from next
// until io.EOF, into every rung of a ladder in one streaming pass,
// writing rungs[i] as an HDVB container to ws[i]. The largest rung is
// the analysis rung: its motion fields (codec.Config.MotionTap),
// geometry-scaled, seed the searches of every smaller rung
// (MotionHints). cfg describes the mezzanine; its coding options apply
// to every rung, overridden by the rung's geometry and Kbps. The rungs
// share one budget of workers tokens, each keeps at most window chunks
// in flight, and each is byte-identical at every workers, window and
// wavefront setting. frames is the length each header declares, as for
// EncodeStream. The first failure anywhere stops every rung and is
// returned with each rung's stats.
func EncodeLadderStream(ws []io.Writer, id CodecID, cfg codec.Config, rungs []LadderRung, workers, window, frames int, next func() (*frame.Frame, error), col *obs.Collector) ([]StreamStats, error) {
	if len(ws) != len(rungs) {
		return nil, fmt.Errorf("core: %d writers for %d ladder rungs", len(ws), len(rungs))
	}
	sinks := make([]streamSink, len(ws))
	ps := make([]packetSink, len(ws))
	for i, w := range ws {
		sinks[i] = streamSink{w: w, frames: frames}
		ps[i] = &sinks[i]
	}
	err := encodeLadder(factories(id), cfg, rungs, ps, workerGate(workers, col), window, next)
	stats := make([]StreamStats, len(ws))
	for i := range sinks {
		stats[i] = sinks[i].stats()
	}
	return stats, err
}

// EncodeLadder is EncodeLadderStream fed from a slice at the default
// window, collecting each rung's packets. A largest rung at the
// mezzanine's geometry codes the input frames themselves, so on return
// each carries its display index as PTS.
func EncodeLadder(id CodecID, cfg codec.Config, frames []*frame.Frame, rungs []LadderRung, workers int) ([]LadderRendition, error) {
	out := make([]LadderRendition, len(rungs))
	ps := make([]packetSink, len(rungs))
	for i, r := range rungs {
		out[i] = LadderRendition{Rung: r, Packets: make([]container.Packet, 0, len(frames))}
		ps[i] = &out[i]
	}
	if err := encodeLadder(factories(id), cfg, rungs, ps, workerGate(workers, nil), 0, sliceNext(frames)); err != nil {
		return nil, err
	}
	return out, nil
}

func (r *LadderRendition) open(hdr container.Header) error { r.Header = hdr; return nil }

func (r *LadderRendition) write(p container.Packet) error {
	r.Packets = append(r.Packets, p)
	return nil
}

// encodeLadder validates a ladder against its mezzanine cfg and codes
// rung i into sinks[i], the largest rung (the first of equals) as the
// analysis rung.
func encodeLadder(newEnc func(codec.Config) pipeline.EncoderFactory, cfg codec.Config, rungs []LadderRung, sinks []packetSink, gate *pipeline.SliceGate, window int, next func() (*frame.Frame, error)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := ValidateLadder(rungs, cfg.Width, cfg.Height); err != nil {
		return err
	}
	out := func(i int) rungOut {
		r := rungOut{cfg: cfg, sink: sinks[i]}
		r.cfg.Width, r.cfg.Height, r.cfg.TargetKbps = rungs[i].Width, rungs[i].Height, rungs[i].Kbps
		return r
	}
	top := 0
	for i, r := range rungs {
		if r.Width*r.Height > rungs[top].Width*rungs[top].Height {
			top = i
		}
	}
	var rl *relay
	if len(rungs) > 1 {
		seeded := make([]seededRung, 0, len(rungs)-1)
		for i := range rungs {
			if i != top {
				seeded = append(seeded, seededRung{rungOut: out(i)})
			}
		}
		rl = newRelay(cfg, seeded)
		next = rl.pull(next)
	}
	if r := rungs[top]; r.Width != cfg.Width || r.Height != cfg.Height {
		next = downscaled(next, r.Width, r.Height)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	return encodeRungs(ctx, cancel, gate, newEnc, window, out(top), rl, next)
}

// factories maps a rung's configuration onto its encoder factory.
func factories(id CodecID) func(codec.Config) pipeline.EncoderFactory {
	return func(cfg codec.Config) pipeline.EncoderFactory { return encoderFactory(id, cfg) }
}

// downscaled yields next's frames downscaled to w×h.
func downscaled(next func() (*frame.Frame, error), w, h int) func() (*frame.Frame, error) {
	return func() (*frame.Frame, error) {
		f, err := next()
		if err != nil {
			return nil, err
		}
		return frame.DownscaleNew(f, w, h), nil
	}
}

// packetSink takes a rung's stream header once its encoder exists, then
// its packets in coding order.
type packetSink interface {
	open(hdr container.Header) error
	write(p container.Packet) error
}

// streamSink writes a rung as an HDVB container to w, its header
// declaring frames when > 0.
type streamSink struct {
	w      io.Writer
	frames int
	sw     *container.StreamWriter
	codec  container.Codec // the header's, once open
}

func (s *streamSink) open(hdr container.Header) (err error) {
	if s.frames > 0 {
		hdr.Frames = s.frames
	}
	s.codec = hdr.Codec
	s.sw, err = container.NewStreamWriter(s.w, hdr)
	return err
}

func (s *streamSink) write(p container.Packet) error {
	if err := s.sw.WritePacket(p); err != nil {
		return fmt.Errorf("core: writing stream: %w", err)
	}
	return nil
}

func (s *streamSink) stats() StreamStats {
	if s.sw == nil {
		return StreamStats{}
	}
	return StreamStats{Frames: s.sw.Count(), Bytes: s.sw.BytesWritten(), GOPs: s.sw.GOPs()}
}

// rungOut is one output of encodeRungs.
type rungOut struct {
	cfg  codec.Config
	sink packetSink
}

// encodeRungs is the one encode engine: EncodeStream,
// EncodeSequenceParallel (through the ladder) and Transcode are its
// one-rung calls, the ladder its many-rung one. Each rung runs
// stream.Encoder → drain → sink, all on gate and on the call's context
// ctx, whose cancel is cancel: the first failure anywhere, the call's
// other stages included, stops every rung and is ctx's cause, which
// encodeRungs returns. Frames are pulled from next once, into top. With
// a relay, top is the analysis rung: it taps its motion fields, and once
// every display PTS up to p has drained from it, its drain hands
// mezzanine frame p to each seeded rung's channel, whose feeder
// downscales it into that rung's encoder. So a seeded rung codes p only
// once p's field exists (or p was coded as I), MotionHints never waits,
// and no goroutine waits on another rung while it holds a token.
//
// Residency is bounded by the windows and channels, not by the clip.
// With W a rung's resolved window, G = IntraPeriod, B = BFrames and
// M = max(G, 4), an encoder holds at most E = (W+2)·M + 2(B+1) frames
// between Write and the drain of their packets (W chunks, one filling,
// one draining; or the serial queue of W·M packets, the B lookahead and
// the packets in hand), and a channel C = max(G, B+1). A mezzanine
// frame, or a seeded rung's copy of it, is held from its pull until
// every seeded rung has coded it: at most 2E + C + 2B + 4 at once (the
// analysis encoder's, B+1 drained but waiting on an earlier PTS, a full
// channel, B+1 being handed on, one in each feeder's hand, and the
// seeded encoder's). A field lives from its tap until every seeded rung
// has drained its PTS: at most 2E + C + 2B + 5.
func encodeRungs(ctx context.Context, cancel context.CancelCauseFunc, gate *pipeline.SliceGate, newEnc func(codec.Config) pipeline.EncoderFactory, window int, top rungOut, rl *relay, next func() (*frame.Frame, error)) error {
	build := func(r rungOut) (*stream.Encoder, error) {
		enc, err := stream.NewEncoder(ctx, cancel, newEnc(r.cfg), r.cfg.IntraPeriod, gate, window)
		if err == nil {
			if err = r.sink.open(enc.Header()); err != nil {
				enc.Close()
			}
		}
		return enc, err
	}
	var release func(container.Packet) error
	if rl != nil {
		top.cfg.MotionTap, release = rl.tap, rl.release
	}
	enc, err := build(top)
	if err != nil {
		cancel(err)
		return context.Cause(ctx)
	}
	if rl != nil {
		if err := rl.start(ctx, build, cancel); err != nil {
			enc.Close()
			cancel(err)
			return context.Cause(ctx)
		}
	}
	fed := feed(next, enc, cancel)
	drainRung(enc, top, release, cancel)
	if rl != nil {
		rl.wait()
	}
	fed.Wait()
	return context.Cause(ctx)
}

// drainRung drains a rung's encoder into its sink packet by packet,
// handing each packet to after, when set, before writing it.
func drainRung(enc *stream.Encoder, r rungOut, after func(container.Packet) error, cancel context.CancelCauseFunc) {
	write := r.sink.write
	if after != nil {
		write = func(p container.Packet) error {
			if err := after(p); err != nil {
				return err
			}
			return r.sink.write(p)
		}
	}
	drain(enc.ReadPacket, write, cancel)
}

// relay carries the analysis rung's work to the seeded rungs it runs:
// mezzanine frames over one channel each, motion fields by display PTS.
type relay struct {
	ctx     context.Context
	rungs   []seededRung
	drained sync.WaitGroup

	mu      sync.Mutex
	fields  map[int]heldField
	waiting []*frame.Frame // pulled, not yet handed on; waiting[0] displays at base
	base    int
	packets int // analysis packets drained
	last    int // 1 + the highest display PTS drained
}

// seededRung is a rung the analysis rung seeds: its output, encoder and
// feeder, and the channel release hands it frames on.
type seededRung struct {
	rungOut
	enc    *stream.Encoder
	fed    *sync.WaitGroup
	frames chan *frame.Frame
}

// heldField is a field and the seeded rungs yet to drain its PTS.
type heldField struct {
	f    *motion.Field
	left int
}

func newRelay(cfg codec.Config, seeded []seededRung) *relay {
	// One GOP chunk or one B group: what a release hands on at once.
	batch := max(cfg.IntraPeriod, cfg.BFrames+1)
	for j := range seeded {
		seeded[j].frames = make(chan *frame.Frame, batch)
	}
	return &relay{rungs: seeded, fields: map[int]heldField{}}
}

// start builds each seeded rung's encoder on the pass's ctx with build,
// closing the ones built if one fails, and runs the rung's feeder and
// drain.
func (rl *relay) start(ctx context.Context, build func(rungOut) (*stream.Encoder, error), cancel context.CancelCauseFunc) error {
	rl.ctx = ctx
	for j := range rl.rungs {
		r := &rl.rungs[j]
		r.cfg.MotionHints = rl.hint
		enc, err := build(r.rungOut)
		if err != nil {
			for i := range j {
				rl.rungs[i].enc.Close()
			}
			return err
		}
		r.enc = enc
	}
	for j := range rl.rungs {
		r := &rl.rungs[j]
		r.fed = feed(downscaled(rl.recv(r.frames), r.cfg.Width, r.cfg.Height), r.enc, cancel)
		rl.drained.Add(1)
		go func() {
			defer rl.drained.Done()
			drainRung(r.enc, r.rungOut, rl.consumed, cancel)
		}()
	}
	return nil
}

// wait ends the seeded rungs' input, once the analysis drain is done,
// and waits for their feeders and drains.
func (rl *relay) wait() {
	for j := range rl.rungs {
		close(rl.rungs[j].frames)
	}
	rl.drained.Wait()
	for j := range rl.rungs {
		rl.rungs[j].fed.Wait()
	}
}

// pull wraps the analysis rung's source, holding each mezzanine frame
// for release.
func (rl *relay) pull(next func() (*frame.Frame, error)) func() (*frame.Frame, error) {
	return func() (*frame.Frame, error) {
		f, err := next()
		if err == nil {
			rl.mu.Lock()
			rl.waiting = append(rl.waiting, f)
			rl.mu.Unlock()
		}
		return f, err
	}
}

// release counts an analysis packet drained. Once the drained display
// PTS are exactly 0 … last-1, every frame up to last-1 is ready, and it
// hands them to each seeded rung in display order.
func (rl *relay) release(p container.Packet) error {
	rl.mu.Lock()
	rl.packets++
	rl.last = max(rl.last, p.DisplayIndex+1)
	var ready []*frame.Frame
	if rl.packets == rl.last {
		ready, rl.waiting = rl.waiting[:rl.last-rl.base], rl.waiting[rl.last-rl.base:]
		rl.base = rl.last
	}
	rl.mu.Unlock()
	defer clear(ready) // waiting's array must not keep them once handed on
	for _, f := range ready {
		for j := range rl.rungs {
			select {
			case rl.rungs[j].frames <- f:
			case <-rl.ctx.Done():
				return context.Cause(rl.ctx)
			}
		}
	}
	return nil
}

// recv yields the frames release hands a seeded rung on frames.
func (rl *relay) recv(frames chan *frame.Frame) func() (*frame.Frame, error) {
	return func() (*frame.Frame, error) {
		select {
		case f, ok := <-frames:
			if !ok {
				return nil, io.EOF
			}
			return f, nil
		case <-rl.ctx.Done():
			return nil, context.Cause(rl.ctx)
		}
	}
}

// tap is the analysis rung's MotionTap, hint a seeded rung's
// MotionHints (nil where the analysis rung coded an I frame), and
// consumed a seeded drain's step that drops a field once every seeded
// rung has drained its PTS.
func (rl *relay) tap(pts int, f *motion.Field) {
	rl.mu.Lock()
	rl.fields[pts] = heldField{f, len(rl.rungs)}
	rl.mu.Unlock()
}

func (rl *relay) hint(pts int) *motion.Field {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.fields[pts].f
}

func (rl *relay) consumed(p container.Packet) error {
	rl.mu.Lock()
	if h := rl.fields[p.DisplayIndex]; h.left > 1 {
		rl.fields[p.DisplayIndex] = heldField{h.f, h.left - 1}
	} else {
		delete(rl.fields, p.DisplayIndex)
	}
	rl.mu.Unlock()
	return nil
}
