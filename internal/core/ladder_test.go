package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/codec/codectest"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/motion"
	"hdvideobench/internal/pipeline"
	"hdvideobench/internal/seqgen"
	"hdvideobench/internal/stream"
)

// The ladder tests code a 96×80 mezzanine into a 48×32 and a 96×80 rung.
const ladderW, ladderH = 96, 80

var ladderRungs = []LadderRung{
	{Name: "48x32", Width: 48, Height: 32},
	{Name: "96x80", Width: ladderW, Height: ladderH},
}

// ladderTimeout bounds every ladder pass a test runs, so a deadlock
// fails the test with every goroutine's stack instead of hanging it.
const ladderTimeout = 2 * time.Minute

// within runs pass and fails the test if it has not returned in
// ladderTimeout.
func within[T any](t *testing.T, pass func() T) T {
	t.Helper()
	done := make(chan T, 1)
	go func() { done <- pass() }()
	var v T
	select {
	case v = <-done:
	case <-time.After(ladderTimeout):
		buf := make([]byte, 1<<20)
		t.Fatalf("ladder pass still running after %v:\n%s", ladderTimeout, buf[:runtime.Stack(buf, true)])
	}
	return v
}

// ladderConfig is the mezzanine configuration of a ladder test.
func ladderConfig(t *testing.T, o EncoderOptions) codec.Config {
	t.Helper()
	o.Width, o.Height = ladderW, ladderH
	cfg, err := CodecConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// containerBytes is a rendition written as EncodeLadderStream writes it
// with no declared length.
func containerBytes(t *testing.T, r LadderRendition) []byte {
	t.Helper()
	var b bytes.Buffer
	cw, err := container.NewWriter(&b, r.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Packets {
		if err := cw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestLadderStreamMatchesReference: every rung of the streaming pass is
// byte-identical to the sequential reference ladder (encodeLadderRef)
// over codecs × GOP shape × workers × window, plus a rate-targeted rung,
// a scene-cut clip on which the rungs place different I frames, a
// chunked GOP shape, and a one-rung ladder below the mezzanine (its
// frames are downscaled with no seeded rung to relay them). sport_pan moves far enough that the seeded rung's
// bytes depend on its hints in the gop=0/b=2 and gop=8 cases, so a field
// missing when its frame is coded shows there.
func TestLadderStreamMatchesReference(t *testing.T) {
	const n = 16
	type ladderCase struct {
		name  string
		o     EncoderOptions
		seq   seqgen.Sequence
		rungs []LadderRung
	}
	var cases []ladderCase
	for _, ip := range []int{0, 4} {
		for _, bf := range []int{-1, 2} {
			cases = append(cases, ladderCase{
				fmt.Sprintf("gop=%d/b=%d", ip, bf),
				EncoderOptions{IntraPeriod: ip, BFrames: bf}, seqgen.SportPan, ladderRungs,
			})
		}
	}
	cases = append(cases,
		ladderCase{"kbps", EncoderOptions{IntraPeriod: 4}, seqgen.SportPan,
			[]LadderRung{{Name: "48x32", Width: 48, Height: 32, Kbps: 60}, ladderRungs[1]}},
		ladderCase{"scenecut", EncoderOptions{IntraPeriod: 8, SceneCutIntra: true}, seqgen.SceneCut, ladderRungs},
		ladderCase{"gop=8", EncoderOptions{IntraPeriod: 8}, seqgen.SportPan, ladderRungs},
		ladderCase{"one-rung", EncoderOptions{IntraPeriod: 4, BFrames: 2}, seqgen.SportPan, ladderRungs[:1]},
	)
	for _, c := range AllCodecs {
		for _, lc := range cases {
			cfg := ladderConfig(t, lc.o)
			frames := seqgen.New(lc.seq, ladderW, ladderH).Generate(n)
			ref, err := encodeLadderRef(c, cfg, frames, lc.rungs, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]byte, len(ref))
			for i, r := range ref {
				want[i] = containerBytes(t, r)
			}
			for _, workers := range []int{1, 3} {
				for _, window := range []int{1, 0} {
					name := fmt.Sprintf("%v/%s/workers=%d/window=%d", c, lc.name, workers, window)
					bufs := make([]bytes.Buffer, len(lc.rungs))
					ws := make([]io.Writer, len(bufs))
					for i := range bufs {
						ws[i] = &bufs[i]
					}
					err := within(t, func() error {
						_, err := EncodeLadderStream(ws, c, cfg, lc.rungs, workers, window, 0, sliceNext(frames), nil)
						return err
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i := range bufs {
						if !bytes.Equal(bufs[i].Bytes(), want[i]) {
							t.Errorf("%s: rung %s differs from the reference", name, lc.rungs[i].Name)
						}
					}
				}
			}
		}
	}
}

// countSink counts a rung's packets; a slow one spends a millisecond on
// each, so the pass backs up behind it.
type countSink struct {
	n    atomic.Int64
	slow bool
}

func (s *countSink) open(container.Header) error { return nil }

func (s *countSink) write(container.Packet) error {
	if s.slow {
		time.Sleep(time.Millisecond)
	}
	s.n.Add(1)
	return nil
}

// residency is the most a ladder pass held at once: mezzanine frames
// (or a seeded rung's copies) pulled but not yet coded by every seeded
// rung, and motion fields not yet dropped by the relay.
type residency struct{ frames, fields int }

// residencyBound is the bound encodeRungs' doc comment states for a
// ladder of cfg's GOP shape whose rungs resolve to window w.
func residencyBound(cfg codec.Config, w int) residency {
	b := cfg.BFrames
	e := (w+2)*max(cfg.IntraPeriod, 4) + 2*(b+1)
	c := max(cfg.IntraPeriod, b+1)
	return residency{frames: 2*e + c + 2*b + 4, fields: 2*e + c + 2*b + 5}
}

// meter watches a two-rung ladder pass through the engine's seams: its
// source, and the factory that builds each rung's encoder. A frame is
// held from its pull until the seeded rung's codec is handed it; a field
// from its tap until the seeded rung's MotionHints stops finding it.
// inCodec counts the Encode calls in flight across both rungs.
type meter struct {
	pulled, coded, inCodec atomic.Int64

	mu        sync.Mutex
	hint      func(pts int) *motion.Field
	live      map[int]bool // tapped PTS whose field the relay still holds
	peak      residency
	codecPeak int64
}

func newMeter() *meter { return &meter{live: map[int]bool{}} }

// source counts the frames the pass pulls from next.
func (m *meter) source(next func() (*frame.Frame, error)) func() (*frame.Frame, error) {
	return func() (*frame.Frame, error) {
		f, err := next()
		if err == nil {
			held := m.pulled.Add(1) - m.coded.Load()
			m.mu.Lock()
			m.peak.frames = max(m.peak.frames, int(held))
			m.mu.Unlock()
		}
		return f, err
	}
}

// factories is the engine's factory seam: MPEG-2 encoders whose Encode
// calls are counted, the seeded rung's as coded frames, and whose
// analysis taps are followed.
func (m *meter) factories(cfg codec.Config) pipeline.EncoderFactory {
	seeded := cfg.MotionHints != nil
	if seeded {
		m.hint = cfg.MotionHints
	}
	if tap := cfg.MotionTap; tap != nil {
		cfg.MotionTap = func(pts int, f *motion.Field) {
			tap(pts, f)
			m.mu.Lock()
			defer m.mu.Unlock()
			m.live[pts] = true
			for p := range m.live {
				if m.hint(p) == nil {
					delete(m.live, p)
				}
			}
			m.peak.fields = max(m.peak.fields, len(m.live))
		}
	}
	inner := encoderFactory(MPEG2, cfg)
	return func() (codec.Encoder, error) {
		enc, err := inner()
		return meteredEncoder{enc, m, seeded}, err
	}
}

type meteredEncoder struct {
	codec.Encoder
	m      *meter
	seeded bool
}

func (e meteredEncoder) Encode(f *frame.Frame) ([]container.Packet, error) {
	n := e.m.inCodec.Add(1)
	defer e.m.inCodec.Add(-1)
	e.m.mu.Lock()
	e.m.codecPeak = max(e.m.codecPeak, n)
	e.m.mu.Unlock()
	if e.seeded {
		e.m.coded.Add(1)
	}
	return e.Encoder.Encode(f)
}

// TestLadderStreamResidency: what a ladder pass holds at once — pulled
// mezzanine frames not yet coded by every seeded rung, motion fields
// not yet dropped — depends on the windows and the GOP shape, never on
// the clip length, and the rungs together keep to the workers budget.
//
// Fed in lockstep — each frame pulled only once every rung has written
// the packets the frames before it let it code — the pass holds exactly
// what the GOP shape makes it wait on, so the high-water marks are the
// same at 40 and at 400 frames: a field or frame kept past its last use
// would make the longer clip's larger. Backed up behind a slow seeded
// writer, it holds what its windows and channels admit, and the
// high-water marks stay within the bound encodeRungs states.
func TestLadderStreamResidency(t *testing.T) {
	for _, tc := range []struct {
		workers, window, gop, bframes int
	}{
		{1, 2, 0, 2},
		{1, 2, 4, -1},
		{3, 3, 0, 2},
		{3, 3, 4, 2},
		{2, 2, 6, 0},
	} {
		name := fmt.Sprintf("workers=%d/window=%d/gop=%d/b=%d", tc.workers, tc.window, tc.gop, tc.bframes)
		t.Run(name, func(t *testing.T) {
			cfg := ladderConfig(t, EncoderOptions{IntraPeriod: tc.gop, BFrames: tc.bframes})
			peak := func(n int, lockstep bool) residency {
				m := newMeter()
				sinks := []*countSink{{slow: !lockstep}, {}}
				next := m.source(frameSource(seqgen.New(seqgen.BlueSky, ladderW, ladderH), n))
				if lockstep {
					next = lockstepSource(next, sinks, cfg, tc.workers > 1 && tc.gop > 0)
				}
				err := within(t, func() error {
					return encodeLadder(m.factories, cfg, ladderRungs, []packetSink{sinks[0], sinks[1]},
						workerGate(tc.workers, nil), tc.window, next)
				})
				if err != nil {
					t.Fatal(err)
				}
				if m.codecPeak > int64(tc.workers) {
					t.Errorf("%d frames: %d Encode calls at once on a %d-worker budget", n, m.codecPeak, tc.workers)
				}
				return m.peak
			}
			if short, long := peak(40, true), peak(400, true); short != long || long.frames == 0 || long.fields == 0 {
				t.Errorf("lockstep: held %+v at 40 frames but %+v at 400", short, long)
			}
			bound := residencyBound(cfg, tc.window)
			for _, n := range []int{40, 400} {
				if got := peak(n, false); got.frames > bound.frames || got.fields > bound.fields {
					t.Errorf("backed up, %d frames: held %+v, over the bound %+v", n, got, bound)
				}
			}
		})
	}
}

// lockstepSource yields next's frames, each only once every sink has
// written all the packets the frames before it let the rungs code:
// whole chunks when chunked, else what a serial encoder of cfg's GOP
// shape has emitted.
func lockstepSource(next func() (*frame.Frame, error), sinks []*countSink, cfg codec.Config, chunked bool) func() (*frame.Frame, error) {
	gop := codec.GOPScheduler{BFrames: cfg.BFrames, IntraPeriod: cfg.IntraPeriod}
	pulled, coded := 0, 0
	return func() (*frame.Frame, error) {
		deadline := time.Now().Add(ladderTimeout)
		for _, s := range sinks {
			for s.n.Load() < int64(coded) {
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("lockstep: a rung wrote %d of %d packets", s.n.Load(), coded)
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
		f, err := next()
		if err != nil {
			return f, err
		}
		pulled++
		if !chunked {
			coded += len(gop.Push(f))
		} else if pulled%cfg.IntraPeriod == 0 {
			coded = pulled
		}
		return f, nil
	}
}

// frameSource yields n frames of gen, then io.EOF.
func frameSource(gen *seqgen.Generator, n int) func() (*frame.Frame, error) {
	i := 0
	return func() (*frame.Frame, error) {
		if i == n {
			return nil, io.EOF
		}
		i++
		return gen.Frame(i - 1), nil
	}
}

// TestLadderStreamFirstFailureWins: a failure planted in one part of a
// ladder pass — its source, a seeded rung's writer, a codec panic in a
// seeded rung — is what the pass returns, with the gate's bank full
// and no goroutine left behind.
func TestLadderStreamFirstFailureWins(t *testing.T) {
	const n, k = 12, 5
	probe := func(gop int) *codectest.Probe { return &codectest.Probe{Slices: 2, Rows: 2, Cols: 2, GOP: gop} }
	cases := []struct {
		name string
		want func(error) bool
		// run codes the ladder on gate; mezzanine frames come from next.
		run func(gate *pipeline.SliceGate, gop int, next func() (*frame.Frame, error)) error
	}{
		{"source", isInjected, func(gate *pipeline.SliceGate, gop int, next func() (*frame.Frame, error)) error {
			i := 0
			failing := func() (*frame.Frame, error) {
				if i++; i == k {
					return nil, errInjected
				}
				return next()
			}
			return runLadder(gate, gop, ladderRungs, []io.Writer{io.Discard, io.Discard}, factories(MPEG2), failing)
		}},
		{"seeded-writer", isInjected, func(gate *pipeline.SliceGate, gop int, next func() (*frame.Frame, error)) error {
			return runLadder(gate, gop, ladderRungs, []io.Writer{&failingWriter{n: 3}, io.Discard}, factories(MPEG2), next)
		}},
		{"seeded-panic", namesPanic, func(gate *pipeline.SliceGate, gop int, next func() (*frame.Frame, error)) error {
			p := probe(gop)
			h := p.Header()
			var seen atomic.Int32
			var target atomic.Pointer[frame.Frame]
			p.OnEncode = func(f *frame.Frame) {
				if seen.Add(1) == k {
					target.Store(f)
				}
			}
			p.OnUnit = func(f *frame.Frame, slice, x, y int) {
				if f == target.Load() {
					panic("probe: injected")
				}
			}
			rungs := []LadderRung{{Name: "probe", Width: h.Width, Height: h.Height}, ladderRungs[1]}
			newEnc := func(cfg codec.Config) pipeline.EncoderFactory {
				if cfg.Width == h.Width && cfg.Height == h.Height {
					return p.NewEncoder
				}
				return encoderFactory(MPEG2, cfg)
			}
			return runLadder(gate, gop, rungs, []io.Writer{io.Discard, io.Discard}, newEnc, next)
		}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3} {
			for _, gop := range []int{4, 0} {
				t.Run(fmt.Sprintf("%s/workers=%d/gop=%d", c.name, workers, gop), func(t *testing.T) {
					before := runtime.NumGoroutine()
					gate := workerGate(workers, nil)
					next := frameSource(seqgen.New(seqgen.BlueSky, ladderW, ladderH), n)
					err := within(t, func() error { return c.run(gate, gop, next) })
					if !c.want(err) {
						t.Errorf("err = %v, want the planted failure", err)
					}
					if errors.Is(err, stream.ErrAborted) {
						t.Errorf("err = %v: the teardown's echo, not the failure", err)
					}
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					defer cancel()
					for i := 0; i < workers; i++ {
						if !gate.Acquire(ctx) {
							t.Fatalf("%d of %d tokens back in the bank", i, workers)
						}
					}
					waitGoroutines(t, before)
				})
			}
		}
	}
}

func isInjected(err error) bool { return errors.Is(err, errInjected) }

func namesPanic(err error) bool { return err != nil && strings.Contains(err.Error(), "panic") }

// runLadder codes a ladder of the test mezzanine at IntraPeriod gop on
// gate, rung i into ws[i], with newEnc as the engine's factory seam.
func runLadder(gate *pipeline.SliceGate, gop int, rungs []LadderRung, ws []io.Writer, newEnc func(codec.Config) pipeline.EncoderFactory, next func() (*frame.Frame, error)) error {
	cfg, err := CodecConfig(EncoderOptions{Width: ladderW, Height: ladderH, IntraPeriod: gop})
	if err != nil {
		return err
	}
	sinks := make([]packetSink, len(ws))
	for i, w := range ws {
		sinks[i] = &streamSink{w: w}
	}
	return encodeLadder(newEnc, cfg, rungs, sinks, gate, 0, next)
}
