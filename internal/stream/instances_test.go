package stream_test

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/core"
	"hdvideobench/internal/pipeline"
	"hdvideobench/internal/seqgen"
	"hdvideobench/internal/stream"
)

// TestChunkInstancesBounded: chunk workers Reset and reuse codec
// instances instead of building one per chunk, so a chunked encode
// builds at most min(workers, chunks) of them, and its stream stays
// byte-identical to the single-instance one.
func TestChunkInstancesBounded(t *testing.T) {
	const w, h, gop = 96, 80, 4
	for _, id := range core.AllCodecs {
		for _, tc := range []struct{ frames, workers int }{{12, 2}, {40, 3}} {
			t.Run(fmt.Sprintf("%v/frames=%d/workers=%d", id, tc.frames, tc.workers), func(t *testing.T) {
				cfg := eqConfig(w, h)
				cfg.IntraPeriod = gop
				frames := seqgen.New(seqgen.Riverbed, w, h).Generate(tc.frames)
				ref, refEnc := streamEncode(t, id, cfg, frames, 1, 0)

				var built atomic.Int32
				factory := func() (codec.Encoder, error) {
					built.Add(1)
					return core.NewEncoder(id, cfg)
				}
				ctx, cancel := context.WithCancelCause(context.Background())
				defer cancel(nil)
				enc, err := stream.NewEncoder(ctx, cancel, factory, gop, pipeline.NewSliceGate(tc.workers), 0)
				if err != nil {
					t.Fatal(err)
				}
				pkts := runEncoder(t, enc, seqgen.New(seqgen.Riverbed, w, h).Generate(tc.frames))
				if n := int(built.Load()); n > tc.workers {
					t.Errorf("built %d codec instances for %d chunks on %d workers, want at most %d",
						n, (tc.frames+gop-1)/gop, tc.workers, tc.workers)
				}
				hdr := refEnc.Header()
				if !bytes.Equal(containerBytes(t, hdr, pkts), containerBytes(t, hdr, ref)) {
					t.Fatalf("stream differs from workers=1")
				}
			})
		}
	}
}
