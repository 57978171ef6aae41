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
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/pipeline"
	"hdvideobench/internal/seqgen"
	"hdvideobench/internal/stream"
)

// errInjected is the one failure each teardown case plants.
var errInjected = errors.New("injected failure")

// failingWriter accepts n-1 writes and fails the nth and every later one.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n--; w.n <= 0 {
		return 0, errInjected
	}
	return len(p), nil
}

// corruptQ marks a damaged probe packet: the probe's quantizer byte is 1.
const corruptQ = 0xFF

// corruptDecoder rejects the packet carrying corruptQ the way a codec
// rejects damaged syntax.
type corruptDecoder struct{ codec.Decoder }

func (d corruptDecoder) Decode(p container.Packet) ([]*frame.Frame, error) {
	if p.Payload[0] == corruptQ {
		return nil, fmt.Errorf("packet %d: %w", p.DisplayIndex, errInjected)
	}
	return d.Decoder.Decode(p)
}

// probeInput is an n-packet probe stream with an I packet every gop
// packets (only the first when gop is 0); packet corrupt, if >= 0,
// carries corruptQ.
func probeInput(t *testing.T, probe *codectest.Probe, n, gop, corrupt int) *container.StreamReader {
	t.Helper()
	var in bytes.Buffer
	hdr := probe.Header()
	hdr.Frames = n
	cw, err := container.NewWriter(&in, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		typ := container.FrameP
		if i == 0 || gop > 0 && i%gop == 0 {
			typ = container.FrameI
		}
		p := probe.Packet(typ, i)
		if i == corrupt {
			p.Payload[0] = corruptQ
		}
		if err := cw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	sr, err := container.NewStreamReader(&in)
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// waitGoroutines fails the test unless the goroutine count falls back
// to before within a second.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTranscodeFirstFailureWins: one failure planted anywhere in a
// transcode or a streaming decode — the output writer, an encoder
// factory, a corrupt input packet, the caller's yield — is what the call
// returns, never the ErrAborted echo the teardown leaves on the other
// stages, and every goroutine of the call exits.
func TestTranscodeFirstFailureWins(t *testing.T) {
	const n = 12
	cases := []struct {
		name string
		run  func(t *testing.T, workers, gop int) error
	}{
		{"writer", func(t *testing.T, workers, gop int) error {
			probe := &codectest.Probe{Slices: 2, Rows: 2, Cols: 2, GOP: gop}
			_, err := transcodeProbe(probeInput(t, probe, n, gop, -1), &failingWriter{n: 3},
				probe.NewDecoder, probe.NewEncoder, gop, workers)
			return err
		}},
		{"encoder-factory", func(t *testing.T, workers, gop int) error {
			probe := &codectest.Probe{Slices: 2, Rows: 2, Cols: 2, GOP: gop}
			// A chunked encode builds its 2nd instance for the 2nd chunk
			// while the 1st is still coding, which the 1st instance waits
			// for; a serial one builds only one instance, so there the
			// 1st fails.
			failAt := int32(2)
			if workers == 1 || gop == 0 {
				failAt = 1
			}
			var built atomic.Int32
			second := make(chan struct{})
			var first sync.Once
			probe.OnEncode = func(*frame.Frame) {
				first.Do(func() {
					select {
					case <-second:
					case <-time.After(time.Second):
					}
				})
			}
			newEnc := func() (codec.Encoder, error) {
				if built.Add(1) == failAt {
					close(second)
					return nil, errInjected
				}
				return probe.NewEncoder()
			}
			_, err := transcodeProbe(probeInput(t, probe, n, gop, -1), io.Discard,
				probe.NewDecoder, newEnc, gop, workers)
			return err
		}},
		{"corrupt-packet", func(t *testing.T, workers, gop int) error {
			probe := &codectest.Probe{Slices: 2, Rows: 2, Cols: 2, GOP: gop}
			newDec := func() (codec.Decoder, error) {
				d, err := probe.NewDecoder()
				return corruptDecoder{d}, err
			}
			_, err := transcodeProbe(probeInput(t, probe, n, gop, n/2), io.Discard,
				newDec, probe.NewEncoder, gop, workers)
			return err
		}},
		{"decode-yield", func(t *testing.T, workers, gop int) error {
			const w, h = 96, 80
			cfg := codec.Default(w, h)
			cfg.IntraPeriod = gop
			frames := seqgen.New(seqgen.BlueSky, w, h).Generate(n)
			var src bytes.Buffer
			i := 0
			next := func() (*frame.Frame, error) {
				if i == len(frames) {
					return nil, io.EOF
				}
				i++
				return frames[i-1], nil
			}
			if _, err := EncodeStream(&src, MPEG2, cfg, 1, 0, 0, next, nil); err != nil {
				t.Fatal(err)
			}
			yielded := 0
			_, _, err := DecodeStream(&src, kernel.Scalar, workers, 0, func(*frame.Frame) error {
				if yielded++; yielded == 3 {
					return errInjected
				}
				return nil
			})
			return err
		}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3} {
			for _, gop := range []int{4, 0} {
				t.Run(fmt.Sprintf("%s/workers=%d/gop=%d", c.name, workers, gop), func(t *testing.T) {
					before := runtime.NumGoroutine()
					err := c.run(t, workers, gop)
					if !errors.Is(err, errInjected) {
						t.Errorf("err = %v, want the injected failure", err)
					}
					if errors.Is(err, stream.ErrAborted) {
						t.Errorf("err = %v: the teardown's echo, not the failure", err)
					}
					waitGoroutines(t, before)
				})
			}
		}
	}
}

// TestPanicContained: a codec that panics mid-frame — on whichever
// goroutine runs the unit: a chunk worker, the serial writer, a spawned
// slice or a wavefront row helper — fails the call with an error naming
// the panic instead of killing the process, and leaves the gate's bank
// full and no goroutine behind.
func TestPanicContained(t *testing.T) {
	const n, k = 12, 5
	for _, workers := range []int{1, 3} {
		for _, gop := range []int{4, 0} {
			for _, slices := range []int{1, 2} {
				for _, rows := range []int{0, 3} {
					name := fmt.Sprintf("workers=%d/gop=%d/slices=%d/wavefront=%v", workers, gop, slices, rows > 0)
					t.Run(name, func(t *testing.T) {
						probe := &codectest.Probe{Slices: slices, Rows: rows, Cols: 3, GOP: gop}
						frames := make([]*frame.Frame, n)
						for i := range frames {
							frames[i] = probe.NewFrame()
						}
						// The last unit of frame k's last slice: a spawned
						// slice and a helper's row whenever tokens are free.
						probe.OnUnit = func(f *frame.Frame, slice, x, y int) {
							if f == frames[k] && slice == slices-1 && (rows == 0 || x == 2 && y == rows-1) {
								panic("probe: injected")
							}
						}
						before := runtime.NumGoroutine()
						gate := pipeline.NewSliceGate(workers)
						_, err := encodeProbe(probe, gop, frames, gate)
						if err == nil || !strings.Contains(err.Error(), "panic") {
							t.Fatalf("err = %v, want one naming the panic", err)
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
}
