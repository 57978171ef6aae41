// Streaming determinism and bounded-memory suite: the streaming engine
// must reproduce the batch path byte for byte at every worker count, and
// its frame residency must stay inside the window bound no matter how
// long the sequence is. Run under -race (CI does) for the full story.
package stream_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/core"
	"hdvideobench/internal/frame"
	"strings"

	"hdvideobench/internal/pipeline"
	"hdvideobench/internal/seqgen"
	"hdvideobench/internal/stream"
)

const (
	eqFrames = 10 // with eqGOP=3: chunks of 3,3,3,1 — ragged tail
	eqGOP    = 3
)

// eqWorkers exercises the serial path and the chunked scheduler.
var eqWorkers = []int{1, 4}

var eqResolutions = []struct {
	name string
	w, h int
}{
	{"576p", 720, 576},
	{"720p", 1280, 720},
}

func eqConfig(w, h int) codec.Config {
	cfg := codec.Default(w, h)
	cfg.IntraPeriod = eqGOP
	cfg.SearchRange = 8
	cfg.Refs = 2
	return cfg
}

func encFactory(id core.CodecID, cfg codec.Config) func() (codec.Encoder, error) {
	return func() (codec.Encoder, error) { return core.NewEncoder(id, cfg) }
}

func decFactory(hdr container.Header, cfg codec.Config) func() (codec.Decoder, error) {
	return func() (codec.Decoder, error) { return core.NewDecoder(hdr, cfg.Kernels) }
}

// streamEncode drives the streaming encoder over frames with a writer
// goroutine and drains the packets from the test goroutine.
func streamEncode(t *testing.T, id core.CodecID, cfg codec.Config, frames []*frame.Frame, workers, window int) ([]container.Packet, *stream.Encoder) {
	t.Helper()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	enc, err := stream.NewEncoder(ctx, cancel, encFactory(id, cfg), cfg.IntraPeriod, pipeline.NewSliceGate(workers), window)
	if err != nil {
		t.Fatal(err)
	}
	return runEncoder(t, enc, frames), enc
}

// readChunk reads the n packets of one closed-GOP chunk.
func readChunk(enc *stream.Encoder, n int) error {
	for range n {
		if _, err := enc.ReadPacket(); err != nil {
			return err
		}
	}
	return nil
}

// runEncoder is streamEncode's engine, for encoders the caller built.
func runEncoder(t *testing.T, enc *stream.Encoder, frames []*frame.Frame) []container.Packet {
	t.Helper()
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
	var pkts []container.Packet
	for {
		p, err := enc.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadPacket: %v", err)
		}
		pkts = append(pkts, p)
	}
	if err := <-werr; err != nil {
		t.Fatalf("writer side: %v", err)
	}
	return pkts
}

// streamDecode mirrors streamEncode for the decoder.
func streamDecode(t *testing.T, hdr container.Header, cfg codec.Config, pkts []container.Packet, workers, window int) ([]*frame.Frame, *stream.Decoder) {
	t.Helper()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	dec, err := stream.NewDecoder(ctx, cancel, decFactory(hdr, cfg), pipeline.NewSliceGate(workers), window)
	if err != nil {
		t.Fatal(err)
	}
	return runDecoder(t, dec, pkts), dec
}

// runDecoder is streamDecode's engine, for decoders the caller built.
func runDecoder(t *testing.T, dec *stream.Decoder, pkts []container.Packet) []*frame.Frame {
	t.Helper()
	werr := make(chan error, 1)
	go func() {
		for _, p := range pkts {
			if err := dec.Write(p); err != nil {
				dec.Close()
				werr <- err
				return
			}
		}
		werr <- dec.Close()
	}()
	var frames []*frame.Frame
	for {
		f, err := dec.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		frames = append(frames, f)
	}
	if err := <-werr; err != nil {
		t.Fatalf("writer side: %v", err)
	}
	return frames
}

// containerBytes serializes a packet stream the way both vcodec paths do.
func containerBytes(t *testing.T, hdr container.Header, pkts []container.Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := container.NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := cw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestStreamingMatchesBatch is the equivalence matrix: codec ×
// {576p, 720p} × {1, 4} workers. The streaming encoder must produce a
// container byte-identical to the batch path, and the streaming decoder
// must reproduce the batch decode exactly (planes and PTS stamps).
func TestStreamingMatchesBatch(t *testing.T) {
	for _, res := range eqResolutions {
		if testing.Short() && res.name == "720p" {
			continue
		}
		for _, id := range core.AllCodecs {
			t.Run(fmt.Sprintf("%s/%v", res.name, id), func(t *testing.T) {
				cfg := eqConfig(res.w, res.h)
				inputs := seqgen.New(seqgen.PedestrianArea, res.w, res.h).Generate(eqFrames)

				batchPkts, hdr, err := core.EncodeSequence(id, cfg, inputs)
				if err != nil {
					t.Fatal(err)
				}
				batchBytes := containerBytes(t, hdr, batchPkts)
				batchFrames, err := core.DecodePackets(hdr, cfg.Kernels, batchPkts)
				if err != nil {
					t.Fatal(err)
				}

				for _, workers := range eqWorkers {
					t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
						fresh := seqgen.New(seqgen.PedestrianArea, res.w, res.h).Generate(eqFrames)
						pkts, enc := streamEncode(t, id, cfg, fresh, workers, 0)
						if enc.Header() != hdr {
							t.Fatalf("header %+v, batch has %+v", enc.Header(), hdr)
						}
						if got := containerBytes(t, enc.Header(), pkts); !bytes.Equal(got, batchBytes) {
							t.Fatalf("streaming container differs from batch (%d vs %d bytes)",
								len(got), len(batchBytes))
						}

						decoded, _ := streamDecode(t, hdr, cfg, pkts, workers, 0)
						framesMatch(t, decoded, batchFrames)
					})
				}
			})
		}
	}
}

// TestStreamingLendingMatchesSerial extends the matrix to the shape
// where all three axes are live at once and idle chunk workers lend
// their tokens: gop > 0 × 2 slices × wavefront on × workers {2, 3, 4},
// with five chunks so no worker count divides the chunk count and every
// run has a tail. Each codec's container must equal the one-worker
// container byte for byte, and the streaming decode of it on the same
// budget must equal the one-worker decode.
func TestStreamingLendingMatchesSerial(t *testing.T) {
	const (
		w, h   = 352, 288 // 18 macroblock rows: two 9-row slices, a real front
		frames = 4*eqGOP + 1
	)
	for _, id := range core.AllCodecs {
		t.Run(id.String(), func(t *testing.T) {
			cfg := eqConfig(w, h)
			cfg.Slices = 2
			cfg.Wavefront = true
			gen := func() []*frame.Frame { return seqgen.New(seqgen.PedestrianArea, w, h).Generate(frames) }

			refPkts, refEnc := streamEncode(t, id, cfg, gen(), 1, 0)
			hdr := refEnc.Header()
			refBytes := containerBytes(t, hdr, refPkts)
			refFrames, _ := streamDecode(t, hdr, cfg, refPkts, 1, 0)

			for _, workers := range []int{2, 3, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					pkts, _ := streamEncode(t, id, cfg, gen(), workers, 0)
					if got := containerBytes(t, hdr, pkts); !bytes.Equal(got, refBytes) {
						t.Fatalf("container differs from workers=1 (%d vs %d bytes)", len(got), len(refBytes))
					}
					decoded, _ := streamDecode(t, hdr, cfg, pkts, workers, 0)
					framesMatch(t, decoded, refFrames)
				})
			}
		})
	}
}

// framesMatch requires identical PTS stamps and planes.
func framesMatch(t *testing.T, got, want []*frame.Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].PTS != want[i].PTS {
			t.Fatalf("frame %d: PTS %d, want %d", i, got[i].PTS, want[i].PTS)
		}
		if !bytes.Equal(got[i].Y, want[i].Y) ||
			!bytes.Equal(got[i].Cb, want[i].Cb) ||
			!bytes.Equal(got[i].Cr, want[i].Cr) {
			t.Fatalf("frame %d: decoded planes differ", i)
		}
	}
}

// TestBoundedResidency is the constant-memory proof: a sequence 16× the
// window must flow through the chunked encoder and decoder with the
// frame high-water mark inside the (Window+1)×GOP bound — a scheduler
// that buffered the sequence would blow past it immediately.
func TestBoundedResidency(t *testing.T) {
	const (
		w, h    = 96, 80
		gop     = 3
		workers = 2
		window  = 2
		frames  = 16 * window * gop // 96 frames, 16× the window
		bound   = (window + 1) * gop
	)
	cfg := eqConfig(w, h)
	cfg.IntraPeriod = gop
	gen := seqgen.New(seqgen.RushHour, w, h)

	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	enc, err := stream.NewEncoder(ctx, cancel, encFactory(core.MPEG2, cfg), gop, pipeline.NewSliceGate(workers), window)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Window() != window {
		t.Fatalf("window %d, want %d", enc.Window(), window)
	}
	werr := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := enc.Write(gen.Frame(i)); err != nil {
				enc.Close()
				werr <- err
				return
			}
		}
		werr <- enc.Close()
	}()
	var pkts []container.Packet
	for {
		p, err := enc.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if len(pkts) != frames {
		t.Fatalf("encoded %d packets, want %d", len(pkts), frames)
	}
	if peak := enc.PeakResident(); peak > bound || peak == 0 {
		t.Fatalf("encoder peak residency %d frames, want within (0, %d]", peak, bound)
	}

	decoded, dec := streamDecode(t, enc.Header(), cfg, pkts, workers, window)
	if len(decoded) != frames {
		t.Fatalf("decoded %d frames, want %d", len(decoded), frames)
	}
	for i, f := range decoded {
		if f.PTS != i {
			t.Fatalf("frame %d: PTS %d", i, f.PTS)
		}
	}
	if peak := dec.PeakResident(); peak > bound || peak == 0 {
		t.Fatalf("decoder peak residency %d frames, want within (0, %d]", peak, bound)
	}
}

// TestEncoderAbortUnblocksWriter reads a few packets, aborts, and checks
// a writer mid-sequence gets ErrAborted instead of hanging on the window.
func TestEncoderAbortUnblocksWriter(t *testing.T) {
	const w, h = 96, 80
	cfg := eqConfig(w, h)
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	enc, err := stream.NewEncoder(ctx, cancel, encFactory(core.MPEG2, cfg), eqGOP, pipeline.NewSliceGate(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	gen := seqgen.New(seqgen.BlueSky, w, h)
	werr := make(chan error, 1)
	go func() {
		var err error
		for i := 0; err == nil; i++ { // unbounded: only an abort stops it
			err = enc.Write(gen.Frame(i))
		}
		enc.Close()
		werr <- err
	}()
	if _, err := enc.ReadPacket(); err != nil {
		t.Fatalf("first packet: %v", err)
	}
	enc.Abort()
	if err := <-werr; err != stream.ErrAborted {
		t.Fatalf("writer got %v, want ErrAborted", err)
	}
	if _, err := enc.ReadPacket(); err != stream.ErrAborted {
		t.Fatalf("reader after abort got %v, want ErrAborted", err)
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

// TestEncoderErrorPropagates feeds a wrong-size frame mid-stream: the
// chunk worker fails and ReadPacket must surface the error (and tear the
// stream down) rather than hang.
func TestEncoderErrorPropagates(t *testing.T) {
	cfg := eqConfig(96, 80)
	for _, workers := range eqWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			enc, err := stream.NewEncoder(ctx, cancel, encFactory(core.MPEG2, cfg), eqGOP, pipeline.NewSliceGate(workers), 0)
			if err != nil {
				t.Fatal(err)
			}
			gen := seqgen.New(seqgen.BlueSky, 96, 80)
			werr := make(chan error, 1)
			go func() {
				var err error
				for i := 0; i < eqGOP && err == nil; i++ {
					err = enc.Write(gen.Frame(i))
				}
				if err == nil {
					err = enc.Write(frame.New(48, 48)) // wrong size: chunk must fail
				}
				if cerr := enc.Close(); err == nil {
					err = cerr
				}
				werr <- err
			}()
			sawErr := false
			for {
				_, err := enc.ReadPacket()
				if err == io.EOF {
					break
				}
				if err != nil {
					sawErr = true
					break
				}
			}
			if !sawErr {
				t.Fatal("reader never saw the encode error")
			}
			<-werr // writer must unblock too, whatever error it reports
		})
	}
}

// fallbackWorkers are the gates the fallback tests decode on: at 1 the
// stream is one streamed segment; at 2 and 4 segments go to the pool's
// workers until one is streamed.
var fallbackWorkers = []int{1, 2, 4}

// TestDecoderSerialFallback streams a first-frame-only-intra sequence
// longer than FallbackPackets: with no closed-GOP boundary to split on,
// the one segment is streamed at every worker count (observable as zero
// pool residency) and still decodes every frame exactly as the batch
// path does.
func TestDecoderSerialFallback(t *testing.T) {
	const w, h = 96, 80
	n := stream.FallbackPackets + 20
	cfg := eqConfig(w, h)
	cfg.IntraPeriod = 0 // the paper's setting: one segment, no boundaries

	inputs := seqgen.New(seqgen.BlueSky, w, h).Generate(n)
	pkts, hdr, err := core.EncodeSequence(core.MPEG2, cfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	batchFrames, err := core.DecodePackets(hdr, cfg.Kernels, pkts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range fallbackWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			decoded, dec := streamDecode(t, hdr, cfg, pkts, workers, 2)
			framesMatch(t, decoded, batchFrames)
			// No worker decoded a segment: the whole stream was streamed,
			// at the codec's own constant memory.
			if peak, rearms := dec.PeakResident(), dec.Rearms(); peak != 0 || rearms != 0 {
				t.Fatalf("pool residency %d, re-arms %d; want 0 and 0", peak, rearms)
			}
		})
	}
}

// TestNewDecoderFactoryError: NewDecoder builds its first codec instance
// itself, so a header no codec accepts fails the call at every worker
// count, before any packet is written.
func TestNewDecoderFactoryError(t *testing.T) {
	refused := errors.New("no codec for this header")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancelCause(context.Background())
		_, err := stream.NewDecoder(ctx, cancel, func() (codec.Decoder, error) { return nil, refused },
			pipeline.NewSliceGate(workers), 0)
		cancel(nil)
		if !errors.Is(err, refused) {
			t.Errorf("workers=%d: NewDecoder returned %v, want the factory's error", workers, err)
		}
	}
}

// TestDecoderRejectsOpenGOP feeds a segment whose second packet displays
// before its I frame — the open-GOP shape the version-2 container
// forbids. The chunked decoder must fail with a clean error, not decode
// garbage in a different order than the batch path would.
func TestDecoderRejectsOpenGOP(t *testing.T) {
	cfg := eqConfig(96, 80)
	hdr := container.Header{Codec: container.CodecMPEG2, Width: 96, Height: 80, FPSNum: 25, FPSDen: 1}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	dec, err := stream.NewDecoder(ctx, cancel, decFactory(hdr, cfg), pipeline.NewSliceGate(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	werr := make(chan error, 1)
	go func() {
		var err error
		for _, p := range []container.Packet{
			{Type: container.FrameI, DisplayIndex: 5, Payload: []byte{1}},
			{Type: container.FrameP, DisplayIndex: 2, Payload: []byte{2}},
		} {
			if err = dec.Write(p); err != nil {
				break
			}
		}
		if cerr := dec.Close(); err == nil {
			err = cerr
		}
		werr <- err
	}()
	_, rerr := dec.ReadFrame()
	if rerr == nil || !strings.Contains(rerr.Error(), "displays before") {
		t.Fatalf("ReadFrame: %v, want open-GOP rejection", rerr)
	}
	<-werr
}

// TestDecoderMidStreamFallback covers the mixed shape: a closed-GOP head
// followed by a boundary-less tail longer than FallbackPackets. With more
// than one worker the head's segments go to the pool's workers and the
// tail is streamed; with one the whole stream is one streamed segment.
// Either way the result must match the batch decode frame for frame.
func TestDecoderMidStreamFallback(t *testing.T) {
	const w, h, headFrames, gop = 96, 80, 6, 3
	tailFrames := stream.FallbackPackets + 10

	headCfg := eqConfig(w, h)
	headCfg.IntraPeriod = gop
	head, hdr, err := core.EncodeSequence(core.MPEG2, headCfg, seqgen.New(seqgen.BlueSky, w, h).Generate(headFrames))
	if err != nil {
		t.Fatal(err)
	}
	tailCfg := eqConfig(w, h)
	tailCfg.IntraPeriod = 0 // no boundaries ever again
	tail, _, err := core.EncodeSequence(core.MPEG2, tailCfg, seqgen.New(seqgen.RushHour, w, h).Generate(tailFrames))
	if err != nil {
		t.Fatal(err)
	}
	// Concatenate: the tail opens with an I frame (a reference reset
	// under the version-2 semantics), display indices shifted behind
	// the head.
	pkts := append([]container.Packet{}, head...)
	for _, p := range tail {
		p.DisplayIndex += headFrames
		pkts = append(pkts, p)
	}

	batchFrames, err := core.DecodePackets(hdr, headCfg.Kernels, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if len(batchFrames) != headFrames+tailFrames {
		t.Fatalf("batch decoded %d frames, want %d", len(batchFrames), headFrames+tailFrames)
	}

	for _, workers := range fallbackWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			decoded, dec := streamDecode(t, hdr, headCfg, pkts, workers, 2)
			framesMatch(t, decoded, batchFrames)
			if got := dec.Rearms(); got != 0 {
				t.Fatalf("decoder re-armed %d times, want 0", got)
			}
			peak := dec.PeakResident()
			if workers == 1 {
				if peak != 0 {
					t.Fatalf("pool residency %d on one worker, want 0 (one streamed segment)", peak)
				}
				return
			}
			// The head's segments were decoded by workers (nonzero
			// residency); the unbounded tail was not (it would have
			// pushed the peak toward tailFrames).
			if peak == 0 || peak > (dec.Window()+1)*gop {
				t.Fatalf("pool residency %d, want within (0, %d] (head only)", peak, (dec.Window()+1)*gop)
			}
		})
	}
}

// TestDecoderRearmsAfterFallback covers the inverse of the mid-stream
// fallback: a boundary-less head longer than FallbackPackets (streamed)
// followed by a closed-GOP tail. With more than one worker the tail's
// first boundary I frame ends the streamed segment and re-arms the pool,
// whose workers decode the remaining segments, instead of streaming
// forever; with one worker no boundary ends the stream's one segment.
// The output must match the batch decode frame for frame.
func TestDecoderRearmsAfterFallback(t *testing.T) {
	const w, h, gop = 96, 80, 3
	headFrames := stream.FallbackPackets + 10
	const tailFrames = 9

	headCfg := eqConfig(w, h)
	headCfg.IntraPeriod = 0 // boundary-less: the head is streamed
	head, hdr, err := core.EncodeSequence(core.MPEG2, headCfg, seqgen.New(seqgen.BlueSky, w, h).Generate(headFrames))
	if err != nil {
		t.Fatal(err)
	}
	tailCfg := eqConfig(w, h)
	tailCfg.IntraPeriod = gop // boundaries return: the decoder must re-arm
	tail, _, err := core.EncodeSequence(core.MPEG2, tailCfg, seqgen.New(seqgen.RushHour, w, h).Generate(tailFrames))
	if err != nil {
		t.Fatal(err)
	}
	pkts := append([]container.Packet{}, head...)
	for _, p := range tail {
		p.DisplayIndex += headFrames
		pkts = append(pkts, p)
	}

	batchFrames, err := core.DecodePackets(hdr, headCfg.Kernels, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if len(batchFrames) != headFrames+tailFrames {
		t.Fatalf("batch decoded %d frames, want %d", len(batchFrames), headFrames+tailFrames)
	}

	for _, workers := range fallbackWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			decoded, dec := streamDecode(t, hdr, headCfg, pkts, workers, 2)
			framesMatch(t, decoded, batchFrames)
			rearms, peak := dec.Rearms(), dec.PeakResident()
			if workers == 1 {
				if rearms != 0 || peak != 0 {
					t.Fatalf("one worker: re-arms %d, pool residency %d; want 0 and 0 (one streamed segment)", rearms, peak)
				}
				return
			}
			if rearms != 1 {
				t.Fatalf("decoder re-armed %d times, want 1", rearms)
			}
			// The tail's segments were decoded by the pool's workers, so
			// residency is visible again after the streamed head.
			if peak == 0 {
				t.Fatal("no pool residency after re-arm: tail was streamed")
			}
		})
	}
}
