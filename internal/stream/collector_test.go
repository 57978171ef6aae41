package stream_test

import (
	"context"
	"io"
	"testing"
	"time"

	"hdvideobench/internal/core"
	"hdvideobench/internal/obs"
	"hdvideobench/internal/pipeline"
	"hdvideobench/internal/seqgen"
	"hdvideobench/internal/stream"
)

// testCollector builds a fully populated collector on a throwaway
// registry, returning both so assertions can read the cells directly.
func testCollector() *obs.Collector {
	r := obs.NewRegistry()
	gate := r.Counter("gate_slices_total", "x.", "mode")
	return &obs.Collector{
		ChunkEncode: r.Histogram("chunk_seconds", "x.", nil).With(),
		DrainStall:  r.Histogram("stall_seconds", "x.", nil).With(),
		QueueDepth:  r.Gauge("queue_depth", "x.").With(),
		GateWait:    r.Histogram("gate_seconds", "x.", nil).With(),
		GateSpawned: gate.With("spawned"),
		GateInline:  gate.With("inline"),

		WavefrontWait: r.Histogram("wavefront_seconds", "x.", nil).With(),
		FrontDepth:    r.Histogram("front_depth", "x.", nil).With(),
	}
}

// TestCollectorChunkedMode: a chunked encode must account every chunk
// exactly once in the encode histogram, balance the queue-depth gauge
// back to zero, record one drain wait per reader pull, and — the gate
// being installed on chunk instances too — account every frame's slice
// dispatch and every slice's front, whichever way the tokens fell. All
// deterministic counts, no timing assertions.
func TestCollectorChunkedMode(t *testing.T) {
	const n, gop = 8, 2 // 4 chunks
	w, h := 96, 80
	const slices = 2 // 5 macroblock rows: slices of 3 and 2 rows, each a front
	cfg := eqConfig(w, h)
	cfg.IntraPeriod = gop
	cfg.Slices = slices
	cfg.Wavefront = true
	col := testCollector()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	enc, err := stream.NewEncoder(ctx, cancel, encFactory(core.MPEG2, cfg), gop, pipeline.NewSliceGate(2).Observe(col), 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := seqgen.New(seqgen.BlueSky, w, h).Generate(n)
	done := make(chan error, 1)
	go func() {
		for _, f := range frames {
			if err := enc.Write(f); err != nil {
				done <- err
				return
			}
		}
		done <- enc.Close()
	}()
	for range n / gop {
		if err := readChunk(enc, gop); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := enc.ReadPacket(); err != io.EOF {
		t.Fatalf("after the last chunk: %v, want io.EOF", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := col.ChunkEncode.Count(); got != 4 {
		t.Errorf("ChunkEncode count = %d, want 4", got)
	}
	if got := col.QueueDepth.Value(); got != 0 {
		t.Errorf("QueueDepth at rest = %v, want 0", got)
	}
	// One drain observation per pool pull: the 4 chunks plus the EOF pull.
	if got := col.DrainStall.Count(); got < n/gop {
		t.Errorf("DrainStall count = %d, want >= %d", got, n/gop)
	}
	// One dispatch per frame, one non-dispatcher slice job per frame
	// (spawned on a lent token or inline), one front per slice.
	if got := col.GateWait.Count(); got != n {
		t.Errorf("GateWait count = %d, want one per frame (%d)", got, n)
	}
	if got := col.GateSpawned.Value() + col.GateInline.Value(); got != n*(slices-1) {
		t.Errorf("slice jobs accounted = %v, want %d", got, n*(slices-1))
	}
	if got := col.FrontDepth.Count(); got != n*slices {
		t.Errorf("FrontDepth count = %d, want one per slice (%d)", got, n*slices)
	}
}

// TestCollectorAbortBalancesQueue: chunks dropped by an abort must still
// decrement the queue gauge.
func TestCollectorAbortBalancesQueue(t *testing.T) {
	const gop = 2
	w, h := 96, 80
	cfg := eqConfig(w, h)
	cfg.IntraPeriod = gop
	col := testCollector()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	enc, err := stream.NewEncoder(ctx, cancel, encFactory(core.MPEG2, cfg), gop, pipeline.NewSliceGate(2).Observe(col), 2)
	if err != nil {
		t.Fatal(err)
	}
	// The writer pushes more chunks than the window holds with nothing
	// draining, so it blocks mid-sequence; Abort from the test goroutine
	// unblocks it with ErrAborted and routes queued chunks through the
	// pool's drop callback. Whatever the interleaving — chunks coded,
	// dropped, or never submitted — the gauge must end at zero once the
	// workers have disposed of what was queued before the abort.
	frames := seqgen.New(seqgen.BlueSky, w, h).Generate(12)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, f := range frames {
			if err := enc.Write(f); err != nil {
				break
			}
		}
		enc.Close()
	}()
	enc.Abort()
	<-done
	if _, err := enc.ReadPacket(); err != stream.ErrAborted {
		t.Fatalf("ReadPacket after abort: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for col.QueueDepth.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("QueueDepth after abort = %v, want 0", col.QueueDepth.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCollectorSerialGateMode: workers > 1 with no GOP boundaries runs
// the serial slice-gate mode; the gate series must move and the chunk
// series must not.
func TestCollectorSerialGateMode(t *testing.T) {
	const n = 4
	w, h := 96, 80
	cfg := eqConfig(w, h)
	cfg.IntraPeriod = 0 // first-frame-only intra: the serial gate shape
	cfg.Slices = 2
	col := testCollector()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	enc, err := stream.NewEncoder(ctx, cancel, encFactory(core.MPEG2, cfg), 0, pipeline.NewSliceGate(2).Observe(col), 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := seqgen.New(seqgen.BlueSky, w, h).Generate(n)
	done := make(chan error, 1)
	go func() {
		for _, f := range frames {
			if err := enc.Write(f); err != nil {
				done <- err
				return
			}
		}
		done <- enc.Close()
	}()
	for {
		if _, err := enc.ReadPacket(); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	slices := col.GateSpawned.Value() + col.GateInline.Value()
	if slices == 0 {
		t.Error("no slice jobs accounted in serial gate mode")
	}
	if got := col.GateWait.Count(); got == 0 {
		t.Error("no gate waits observed in serial gate mode")
	}
	if got := col.ChunkEncode.Count(); got != 0 {
		t.Errorf("ChunkEncode moved in serial mode: %d", got)
	}
}
