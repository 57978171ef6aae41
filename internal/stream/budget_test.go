// Worker-budget suite: the streaming encoder and decoder, built on one
// pipeline.SliceGate, never have more goroutines inside the codec than
// the gate has tokens, and tokens a chunk worker is not using are lent
// to the frames still being coded. The codec is codectest's probe on the
// real frame drivers, which counts the goroutines inside it.
package stream_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"hdvideobench/internal/codec/codectest"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/pipeline"
	"hdvideobench/internal/stream"
)

var budgetWorkers = []int{2, 3, 4}

// numberedFrames returns n blank frames of p's size stamped 0..n-1.
func numberedFrames(p *codectest.Probe, n int) []*frame.Frame {
	frames := make([]*frame.Frame, n)
	for i := range frames {
		frames[i] = p.NewFrame()
		frames[i].PTS = i
	}
	return frames
}

// TestBudgetStreamEncode: workers+1 chunks of frames that each offer
// more slices and rows than there are workers.
func TestBudgetStreamEncode(t *testing.T) {
	const gop = 3
	for _, workers := range budgetWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			probe := &codectest.Probe{Slices: workers + 1, Rows: 4, Cols: 4, GOP: gop}
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			enc, err := stream.NewEncoder(ctx, cancel, probe.NewEncoder, gop, pipeline.NewSliceGate(workers), 0)
			if err != nil {
				t.Fatal(err)
			}
			frames := numberedFrames(probe, (workers+1)*gop)
			pkts := runEncoder(t, enc, frames)
			for i, p := range pkts {
				if p.DisplayIndex != i {
					t.Fatalf("packet %d displays at %d", i, p.DisplayIndex)
				}
			}
			if len(pkts) != len(frames) {
				t.Fatalf("%d packets for %d frames", len(pkts), len(frames))
			}
			if got := probe.Peak(); got > workers {
				t.Errorf("%d goroutines inside the codec at once, budget %d", got, workers)
			}
		})
	}
}

// TestIdleChunkWorkersLendTokens forces the tail of a chunked encode:
// workers+1 chunks, the first `workers` of them held at their first
// frame until every chunk worker is inside the codec, the last one held
// until the others have been drained — so when it runs, every other
// token is provably back in the bank. Its frames must then fan out:
// slices win tokens (GateSpawned moves) and fronts run more than one
// row deep (FrontDepth mean above 1), where the same frames coded with
// the bank empty would have run inline and serially.
func TestIdleChunkWorkersLendTokens(t *testing.T) {
	const gop = 2
	shapes := []struct {
		name         string
		slices, rows int
		minWorkers   int // the dispatcher, a spawned slice and a row helper need three tokens
	}{
		{"slices", 2, 0, 2},
		{"rows", 1, 4, 2},
		{"slices+rows", 2, 4, 3},
	}
	for _, workers := range budgetWorkers {
		for _, sh := range shapes {
			if workers < sh.minWorkers {
				continue
			}
			t.Run(fmt.Sprintf("workers=%d/%s", workers, sh.name), func(t *testing.T) {
				chunks := workers + 1
				entered := make(chan int, chunks)
				release := make([]chan struct{}, chunks)
				for i := range release {
					release[i] = make(chan struct{})
				}
				probe := &codectest.Probe{Slices: sh.slices, Rows: sh.rows, Cols: 4, GOP: gop,
					OnEncode: func(f *frame.Frame) {
						if f.PTS%gop == 0 { // a chunk's first frame
							entered <- f.PTS / gop
							<-release[f.PTS/gop]
						}
					}}
				col := testCollector()
				gate := pipeline.NewSliceGate(workers).Observe(col)
				// The window admits every chunk, so the writer never waits on the reader.
				ctx, cancel := context.WithCancelCause(context.Background())
				defer cancel(nil)
				enc, err := stream.NewEncoder(ctx, cancel, probe.NewEncoder, gop, gate, chunks)
				if err != nil {
					t.Fatal(err)
				}
				werr := make(chan error, 1)
				go func() {
					for _, f := range numberedFrames(probe, chunks*gop) {
						if err := enc.Write(f); err != nil {
							enc.Close()
							werr <- err
							return
						}
					}
					werr <- enc.Close()
				}()

				// Every chunk worker is parked inside Encode holding a token: the bank is empty.
				for i := 0; i < workers; i++ {
					<-entered
				}
				for i := 0; i < workers; i++ {
					close(release[i])
				}
				// A chunk is handed to the reader only after its worker returned its token.
				for i := 0; i < workers; i++ {
					if err := readChunk(enc, gop); err != nil {
						t.Fatalf("chunk %d: %v", i, err)
					}
				}
				if last := <-entered; last != workers {
					t.Fatalf("chunk %d entered the codec, want the last one (%d)", last, workers)
				}
				spawned, fronts, depth := col.GateSpawned.Value(), col.FrontDepth.Count(), col.FrontDepth.Sum()

				// workers-1 tokens are idle; the last chunk's frames are the only takers.
				close(release[workers])
				if err := readChunk(enc, gop); err != nil {
					t.Fatalf("last chunk: %v", err)
				}
				if _, err := enc.ReadPacket(); err != io.EOF {
					t.Fatalf("after the last chunk: %v, want io.EOF", err)
				}
				if err := <-werr; err != nil {
					t.Fatal(err)
				}

				if sh.slices > 1 && col.GateSpawned.Value() == spawned {
					t.Error("no slice of the last chunk ran on a lent token")
				}
				if sh.rows > 0 {
					n, sum := col.FrontDepth.Count()-fronts, col.FrontDepth.Sum()-depth
					if n == 0 || sum <= float64(n) {
						t.Errorf("fronts of the last chunk: %d run, mean depth %.2f, want above 1", n, sum/float64(n))
					}
				}
				if got := probe.Peak(); got > workers {
					t.Errorf("%d goroutines inside the codec at once, budget %d", got, workers)
				}
			})
		}
	}
}

// TestBudgetStreamDecodeAcrossFallbackAndRearm streams two short
// segments, one longer than FallbackPackets, and three more short ones
// through a chunked decoder: pool → serial fallback → re-armed pool. The
// first segment is held inside the codec until the fallback instance has
// started decoding, so the fallback demonstrably begins while a pool
// segment still holds a token — the moment a fallback with a budget of
// its own would run workers+1 goroutines.
func TestBudgetStreamDecodeAcrossFallbackAndRearm(t *testing.T) {
	const short = 3
	const longStart = 2 * short
	for _, workers := range budgetWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fallbackRunning := make(chan struct{})
			probe := &codectest.Probe{Slices: workers + 1, Rows: 3, Cols: 3,
				OnDecode: func(p container.Packet) {
					// The id in the payload survives the display-index
					// rebasing segments and fallbacks do.
					switch codectest.PacketID(p) {
					case 0:
						<-fallbackRunning
					case longStart:
						close(fallbackRunning)
					}
				}}
			var pkts []container.Packet
			segment := func(n int) {
				for i := 0; i < n; i++ {
					typ := container.FrameP
					if i == 0 {
						typ = container.FrameI
					}
					pkts = append(pkts, probe.Packet(typ, len(pkts)))
				}
			}
			segment(short)
			segment(short)
			segment(stream.FallbackPackets + 4)
			for i := 0; i < 3; i++ {
				segment(short)
			}
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			dec, err := stream.NewDecoder(ctx, cancel, probe.NewDecoder, pipeline.NewSliceGate(workers), 0)
			if err != nil {
				t.Fatal(err)
			}
			frames := runDecoder(t, dec, pkts)
			if len(frames) != len(pkts) {
				t.Fatalf("decoded %d of %d frames", len(frames), len(pkts))
			}
			for i, f := range frames {
				if f.PTS != i {
					t.Fatalf("frame %d has PTS %d", i, f.PTS)
				}
			}
			if got := dec.Rearms(); got != 1 {
				t.Fatalf("decoder re-armed %d times, want 1", got)
			}
			if got := probe.Peak(); got > workers {
				t.Errorf("%d goroutines inside the codec at once, budget %d", got, workers)
			}
		})
	}
}
