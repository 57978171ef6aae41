// ReadChunk (the chunk-granular packet tap) and the abort/Write ordering
// fix: an aborted stream must reject frames immediately, and chunk
// grouping must agree between the scheduler's chunked mode and the
// serial mode's I-frame grouping.
package stream_test

import (
	"context"
	"io"
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/core"
	"hdvideobench/internal/pipeline"
	"hdvideobench/internal/seqgen"
	"hdvideobench/internal/stream"
)

// streamEncodeChunks mirrors streamEncode but drains via ReadChunk.
func streamEncodeChunks(t *testing.T, id core.CodecID, cfg codec.Config, n, workers, window int) [][]container.Packet {
	t.Helper()
	const w, h = 96, 80
	frames := seqgen.New(seqgen.BlueSky, w, h).Generate(n)
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	enc, err := stream.NewEncoder(ctx, cancel, encFactory(id, cfg), cfg.IntraPeriod, pipeline.NewSliceGate(workers), window)
	if err != nil {
		t.Fatal(err)
	}
	werr := make(chan error, 1)
	go func() {
		for _, f := range frames {
			if err := enc.Write(f); err != nil {
				enc.Close()
				werr <- err
				return
			}
		}
		werr <- enc.Close()
	}()
	var chunks [][]container.Packet
	for {
		pkts, err := enc.ReadChunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadChunk: %v", err)
		}
		chunks = append(chunks, pkts)
	}
	if err := <-werr; err != nil {
		t.Fatalf("writer side: %v", err)
	}
	return chunks
}

// TestReadChunkGOPBoundaries: in both modes, every chunk must open with
// the GOP's I packet, cover gop frames (ragged tail aside), and the
// concatenation must be the exact ReadPacket stream.
func TestReadChunkGOPBoundaries(t *testing.T) {
	const w, h, n, gop = 96, 80, 10, 3 // chunks of 3,3,3,1
	cfg := eqConfig(w, h)
	cfg.IntraPeriod = gop

	ref, _ := streamEncode(t, core.MPEG2, cfg,
		seqgen.New(seqgen.BlueSky, w, h).Generate(n), 1, 0)

	for _, workers := range []int{1, 4} {
		chunks := streamEncodeChunks(t, core.MPEG2, cfg, n, workers, 0)
		if want := (n + gop - 1) / gop; len(chunks) != want {
			t.Fatalf("workers=%d: %d chunks, want %d", workers, len(chunks), want)
		}
		flat := 0
		for ci, chunk := range chunks {
			if len(chunk) == 0 {
				t.Fatalf("workers=%d: chunk %d empty", workers, ci)
			}
			if chunk[0].Type != container.FrameI {
				t.Fatalf("workers=%d: chunk %d opens with %c, want I", workers, ci, chunk[0].Type)
			}
			if chunk[0].DisplayIndex != ci*gop {
				t.Fatalf("workers=%d: chunk %d opens at display %d, want %d",
					workers, ci, chunk[0].DisplayIndex, ci*gop)
			}
			for pi, p := range chunk {
				if pi > 0 && p.Type == container.FrameI {
					t.Fatalf("workers=%d: chunk %d has interior I packet at %d", workers, ci, pi)
				}
				if flat >= len(ref) {
					t.Fatalf("workers=%d: more chunked packets than the packet stream", workers)
				}
				r := ref[flat]
				if p.Type != r.Type || p.DisplayIndex != r.DisplayIndex || string(p.Payload) != string(r.Payload) {
					t.Fatalf("workers=%d: chunk %d packet %d differs from packet-stream position %d",
						workers, ci, pi, flat)
				}
				flat++
			}
		}
		if flat != len(ref) {
			t.Fatalf("workers=%d: %d packets via chunks, want %d", workers, flat, len(ref))
		}
	}
}

// TestReadChunkSingleGOP: gop=0 in serial mode yields the whole stream
// as one chunk (the degenerate seek unit).
func TestReadChunkSingleGOP(t *testing.T) {
	const w, h, n = 96, 80, 5
	cfg := eqConfig(w, h)
	cfg.IntraPeriod = 0
	chunks := streamEncodeChunks(t, core.MPEG2, cfg, n, 1, 0)
	if len(chunks) != 1 || len(chunks[0]) != n {
		t.Fatalf("got %d chunks (first %d packets), want 1 chunk of %d", len(chunks), len(chunks[0]), n)
	}
}

// TestWriteAfterAbortRejected pins the Write/Abort ordering fix: once a
// stream is aborted, further Writes must return ErrAborted immediately
// instead of buffering frames into the current chunk — a dead stream
// must not keep accumulating memory between the abort and the writer
// noticing.
func TestWriteAfterAbortRejected(t *testing.T) {
	const w, h, gop = 96, 80, 4
	cfg := eqConfig(w, h)
	cfg.IntraPeriod = gop
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	enc, err := stream.NewEncoder(ctx, cancel, encFactory(core.MPEG2, cfg), gop, pipeline.NewSliceGate(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	gen := seqgen.New(seqgen.BlueSky, w, h)
	// One frame in: less than a chunk, so nothing has been submitted and
	// the old code path would happily keep buffering.
	if err := enc.Write(gen.Frame(0)); err != nil {
		t.Fatal(err)
	}
	enc.Abort()
	for i := 1; i <= 8; i++ {
		if err := enc.Write(gen.Frame(i)); err != stream.ErrAborted {
			t.Fatalf("Write %d after Abort: %v, want ErrAborted", i, err)
		}
	}
	if got := enc.PeakResident(); got > 1 {
		t.Fatalf("aborted stream accumulated frames: PeakResident=%d, want <=1", got)
	}
	if err := enc.Close(); err != nil && err != stream.ErrAborted {
		t.Fatalf("Close after abort: %v, want nil or ErrAborted", err)
	}
}
