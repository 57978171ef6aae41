package core_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/core"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/metrics"
	"hdvideobench/internal/seqgen"
)

func streamCfg(w, h, gop int) codec.Config {
	cfg := codec.Default(w, h)
	cfg.IntraPeriod = gop
	cfg.SearchRange = 8
	cfg.Refs = 2
	return cfg
}

// transcodeOpts is streamCfg as Transcode takes it: dimensions copy the
// input's, two workers.
func transcodeOpts(gop int) core.EncoderOptions {
	return core.EncoderOptions{IntraPeriod: gop, SearchRange: 8, Refs: 2, Workers: 2}
}

// frameFeeder yields n generated frames then io.EOF.
func frameFeeder(seq seqgen.Sequence, w, h, n int) func() (*frame.Frame, error) {
	gen := seqgen.New(seq, w, h)
	i := 0
	return func() (*frame.Frame, error) {
		if i >= n {
			return nil, io.EOF
		}
		f := gen.Frame(i)
		i++
		return f, nil
	}
}

// TestEncodeStreamMatchesBatchContainer checks the one-call streaming
// encode produces the exact container bytes of the batch encode+write
// path.
func TestEncodeStreamMatchesBatchContainer(t *testing.T) {
	const w, h, n, gop = 96, 80, 10, 3
	cfg := streamCfg(w, h, gop)
	inputs := seqgen.New(seqgen.BlueSky, w, h).Generate(n)
	pkts, hdr, err := core.EncodeSequence(core.H264, cfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	cw, err := container.NewWriter(&batch, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := cw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}

	var streamed bytes.Buffer
	stats, err := core.EncodeStream(&streamed, core.H264, cfg, 4, 0, 0, frameFeeder(seqgen.BlueSky, w, h, n), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), batch.Bytes()) {
		t.Fatalf("streamed container differs from batch (%d vs %d bytes)", streamed.Len(), batch.Len())
	}
	if stats.Frames != n {
		t.Fatalf("stats.Frames = %d, want %d", stats.Frames, n)
	}
	if stats.Bytes != int64(streamed.Len()) {
		t.Fatalf("stats.Bytes = %d, want %d", stats.Bytes, streamed.Len())
	}
}

// TestDecodeStreamRoundTrip checks DecodeStream yields the same frames
// as the batch decode, in order, with quality agreeing exactly.
func TestDecodeStreamRoundTrip(t *testing.T) {
	const w, h, n, gop = 96, 80, 10, 3
	cfg := streamCfg(w, h, gop)
	var buf bytes.Buffer
	if _, err := core.EncodeStream(&buf, core.MPEG4, cfg, 2, 0, 0, frameFeeder(seqgen.RushHour, w, h, n), nil, nil); err != nil {
		t.Fatal(err)
	}
	coded := buf.Bytes()

	hdr, pkts, err := readAll(bytes.NewReader(coded))
	if err != nil {
		t.Fatal(err)
	}
	batchFrames, err := core.DecodePackets(hdr, kernel.Scalar, pkts)
	if err != nil {
		t.Fatal(err)
	}

	var got []*frame.Frame
	ghdr, stats, err := core.DecodeStream(bytes.NewReader(coded), kernel.Scalar, 2, 0, func(f *frame.Frame) error {
		got = append(got, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ghdr != hdr {
		t.Fatalf("header %+v, want %+v", ghdr, hdr)
	}
	if stats.Frames != n || len(got) != len(batchFrames) {
		t.Fatalf("decoded %d frames (stats %d), want %d", len(got), stats.Frames, n)
	}
	for i := range got {
		if got[i].PTS != batchFrames[i].PTS {
			t.Fatalf("frame %d: PTS %d, batch has %d", i, got[i].PTS, batchFrames[i].PTS)
		}
		if p := metrics.PSNRFrames(batchFrames[i], got[i]); !(p > 99) { // identical planes → +Inf
			t.Fatalf("frame %d differs from batch decode (PSNR %.2f)", i, p)
		}
	}
}

func readAll(r io.Reader) (container.Header, []container.Packet, error) {
	sr, err := container.NewStreamReader(r)
	if err != nil {
		return container.Header{}, nil, err
	}
	var pkts []container.Packet
	for {
		p, err := sr.Next()
		if err == io.EOF {
			return sr.Header(), pkts, nil
		}
		if err != nil {
			return container.Header{}, nil, err
		}
		pkts = append(pkts, p)
	}
}

// TestTranscodeStreaming transcodes an MPEG-2 stream to H.264 and
// checks the output decodes to the full sequence with sane quality and
// a declared frame count carried over from the input.
func TestTranscodeStreaming(t *testing.T) {
	const w, h, n, gop = 96, 80, 12, 4
	cfg := streamCfg(w, h, gop)

	var src bytes.Buffer
	// Declare the length on the source container so Transcode can pass
	// it through.
	enc, err := core.NewStreamEncoder(core.MPEG2, cfg, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	hdr := enc.Header()
	hdr.Frames = n
	sw, err := container.NewStreamWriter(&src, hdr)
	if err != nil {
		t.Fatal(err)
	}
	feed := frameFeeder(seqgen.PedestrianArea, w, h, n)
	done := make(chan error, 1)
	go func() {
		for {
			f, err := feed()
			if err == io.EOF {
				done <- enc.Close()
				return
			}
			if err = enc.Write(f); err != nil {
				enc.Close()
				done <- err
				return
			}
		}
	}()
	for {
		p, err := enc.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	var dst bytes.Buffer
	stats, err := core.Transcode(bytes.NewReader(src.Bytes()), &dst, core.H264, transcodeOpts(gop))
	if err != nil {
		t.Fatal(err)
	}
	if stats.In != container.CodecMPEG2 || stats.Out != container.CodecH264 {
		t.Fatalf("stats codecs %v -> %v", stats.In, stats.Out)
	}
	if stats.Frames != n {
		t.Fatalf("stats.Frames = %d, want %d", stats.Frames, n)
	}
	if stats.BytesIn != int64(src.Len()) || stats.BytesOut != int64(dst.Len()) {
		t.Fatalf("byte stats %d/%d, want %d/%d", stats.BytesIn, stats.BytesOut, src.Len(), dst.Len())
	}

	ohdr, opkts, err := readAll(bytes.NewReader(dst.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ohdr.Codec != container.CodecH264 || ohdr.Frames != n {
		t.Fatalf("output header %+v", ohdr)
	}
	decoded, err := core.DecodePackets(ohdr, kernel.Scalar, opkts)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != n {
		t.Fatalf("decoded %d frames, want %d", len(decoded), n)
	}
	inputs := seqgen.New(seqgen.PedestrianArea, w, h).Generate(n)
	for i := range decoded {
		if p := metrics.PSNRFrames(inputs[i], decoded[i]); p < 20 {
			t.Fatalf("frame %d: transcoded PSNR %.2f dB, want >= 20", i, p)
		}
	}
}

// TestTranscodeBadInput checks a non-HDVB input fails cleanly.
func TestTranscodeBadInput(t *testing.T) {
	var dst bytes.Buffer
	_, err := core.Transcode(strings.NewReader("not a container, just twenty-plus bytes"), &dst, core.H264, transcodeOpts(4))
	if !errors.Is(err, container.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if dst.Len() != 0 {
		t.Fatalf("wrote %d bytes on bad input", dst.Len())
	}
}

// TestTranscodeTruncatedInput checks a truncated declared-length input
// surfaces io.ErrUnexpectedEOF through the whole pipeline.
func TestTranscodeTruncatedInput(t *testing.T) {
	const w, h, n, gop = 96, 80, 8, 4
	cfg := streamCfg(w, h, gop)
	var src bytes.Buffer
	if _, err := core.EncodeStream(&src, core.MPEG2, cfg, 1, 0, 0, frameFeeder(seqgen.BlueSky, w, h, n), nil, nil); err != nil {
		t.Fatal(err)
	}
	// Rewrite the header to declare more frames than the stream holds,
	// then hand the whole thing to Transcode.
	full := src.Bytes()
	full[16] = byte(n + 3) // little-endian u32 frame count at offset 16
	var dst bytes.Buffer
	_, err := core.Transcode(bytes.NewReader(full), &dst, core.MPEG4, transcodeOpts(gop))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFormatScalingJSON checks the machine-readable scaling report is
// valid JSON with the configuration echoed.
func TestFormatScalingJSON(t *testing.T) {
	o := core.SuiteOptions{Frames: 4, Q: 5, IntraPeriod: 2, Repeats: 1}
	results := []core.SpeedResult{
		{Resolution: core.Resolutions[0], Codec: core.MPEG2, Direction: core.Encode, Workers: 1, GOP: 2, FPS: 10, Frames: 4},
		{Resolution: core.Resolutions[0], Codec: core.MPEG2, Direction: core.Encode, Workers: 2, GOP: 2, FPS: 19, Frames: 4},
	}
	out, err := core.FormatScalingJSON(o, results)
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, want := range []string{`"benchmark": "hdvbench-scaling"`, `"workers": 2`, `"direction": "encoding"`, `"gop": 2`, `"num_cpu"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON missing %s:\n%s", want, s)
		}
	}
}
