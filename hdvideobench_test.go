package hdvideobench

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPublicRoundTripAllCodecs(t *testing.T) {
	for _, c := range []Codec{MPEG2, MPEG4, H264} {
		gen := NewSequence(RushHour, 96, 80)
		frames := gen.Generate(5)
		enc, err := NewEncoder(c, EncoderOptions{Width: 96, Height: 80})
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := EncodeFrames(enc, frames)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(enc.Header(), false)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodePackets(dec, pkts)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(frames) {
			t.Fatalf("%v: %d frames out", c, len(out))
		}
		for i := range out {
			if PSNR(frames[i], out[i]) < 25 {
				t.Errorf("%v frame %d: PSNR %.2f", c, i, PSNR(frames[i], out[i]))
			}
		}
	}
}

func TestStreamFileRoundTrip(t *testing.T) {
	gen := NewSequence(BlueSky, 96, 80)
	enc, err := NewEncoder(H264, EncoderOptions{Width: 96, Height: 80})
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := EncodeFrames(enc, gen.Generate(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteStream(&buf, enc.Header(), pkts); err != nil {
		t.Fatal(err)
	}
	hdr, pkts2, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Width != 96 || len(pkts2) != len(pkts) {
		t.Fatalf("header %+v, %d packets", hdr, len(pkts2))
	}
	dec, err := NewDecoder(hdr, true)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodePackets(dec, pkts2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("%d frames", len(out))
	}
}

// TestEncoderOptionsValidation hands one bad option to every public
// entry point that takes EncoderOptions. Each must return an error that
// names the field — without panicking, hanging, or leaving a goroutine
// behind — however many layers sit between it and the codec.
func TestEncoderOptionsValidation(t *testing.T) {
	const w, h = 96, 80
	frames := NewSequence(BlueSky, w, h).Generate(2)
	pkts, hdr, err := EncodeFramesParallel(MPEG2, EncoderOptions{Width: w, Height: h}, frames)
	if err != nil {
		t.Fatal(err)
	}
	var src bytes.Buffer
	if err := WriteStream(&src, hdr, pkts); err != nil {
		t.Fatal(err)
	}
	next := func() func() (*Frame, error) {
		i := 0
		return func() (*Frame, error) {
			if i == len(frames) {
				return nil, io.EOF
			}
			i++
			return frames[i-1], nil
		}
	}
	rungs := []LadderRung{{Name: "96x80", Width: w, Height: h}}

	bad := []struct {
		name, field string
		set         func(*EncoderOptions)
	}{
		{"Width 100", "dimensions", func(o *EncoderOptions) { o.Width = 100 }},
		{"Q 40", "quantizer", func(o *EncoderOptions) { o.Q = 40 }},
		{"Slices -1", "slices", func(o *EncoderOptions) { o.Slices = -1 }},
		{"Kbps -1", "bitrate", func(o *EncoderOptions) { o.Kbps = -1 }},
		{"SearchRange 99", "search range", func(o *EncoderOptions) { o.SearchRange = 99 }},
	}
	entries := []struct {
		name string
		call func(EncoderOptions) error
	}{
		{"NewEncoder", func(o EncoderOptions) error { _, err := NewEncoder(H264, o); return err }},
		{"EncodeFramesParallel/workers=1", func(o EncoderOptions) error {
			o.Workers = 1
			_, _, err := EncodeFramesParallel(H264, o, frames)
			return err
		}},
		{"EncodeFramesParallel/workers=4", func(o EncoderOptions) error {
			o.Workers, o.IntraPeriod = 4, 1
			_, _, err := EncodeFramesParallel(H264, o, frames)
			return err
		}},
		{"NewStreamEncoder", func(o EncoderOptions) error { _, err := NewStreamEncoder(H264, o); return err }},
		{"EncodeStream", func(o EncoderOptions) error {
			_, err := EncodeStream(io.Discard, H264, o, 0, next())
			return err
		}},
		{"EncodeLadder", func(o EncoderOptions) error { _, err := EncodeLadder(H264, o, frames, rungs); return err }},
		{"Transcode", func(o EncoderOptions) error {
			_, err := Transcode(bytes.NewReader(src.Bytes()), io.Discard, H264, o)
			return err
		}},
	}
	for _, b := range bad {
		for _, e := range entries {
			t.Run(b.name+"/"+e.name, func(t *testing.T) {
				opts := EncoderOptions{Width: w, Height: h}
				b.set(&opts)
				before := runtime.NumGoroutine()
				err := e.call(opts)
				if err == nil || !strings.Contains(err.Error(), b.field) {
					t.Errorf("err = %v, want one naming %q", err, b.field)
				}
				deadline := time.Now().Add(time.Second)
				for runtime.NumGoroutine() > before {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines left running, started with %d", runtime.NumGoroutine(), before)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}

	if err := ValidateResolution(96, 80); err != nil {
		t.Error(err)
	}
	if err := ValidateResolution(97, 80); err == nil {
		t.Error("odd width must fail validation")
	}
}

// TestH264RefsOne: a B picture predicts from two references, so H.264
// with one reference and B frames is refused when the encoder is built
// instead of panicking in its first B frame; one reference without B
// frames (BFrames: -1 — zero takes the default of two) still codes.
func TestH264RefsOne(t *testing.T) {
	if _, err := NewEncoder(H264, EncoderOptions{Width: 96, Height: 80, Refs: 1, BFrames: 2}); err == nil ||
		!strings.Contains(err.Error(), "B frames need refs ≥ 2") {
		t.Fatalf("Refs 1, BFrames 2: err = %v", err)
	}
	enc, err := NewEncoder(H264, EncoderOptions{Width: 96, Height: 80, Refs: 1, BFrames: -1})
	if err != nil {
		t.Fatal(err)
	}
	frames := NewSequence(RushHour, 96, 80).Generate(5)
	pkts, err := EncodeFrames(enc, frames)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(enc.Header(), false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodePackets(dec, pkts)
	if err != nil || len(out) != len(frames) {
		t.Fatalf("%d frames decoded: %v", len(out), err)
	}
	for i := range out {
		if p := PSNR(frames[i], out[i]); p < 25 {
			t.Errorf("frame %d: PSNR %.2f", i, p)
		}
	}
}

func TestBFramesDisabled(t *testing.T) {
	gen := NewSequence(RushHour, 96, 80)
	enc, err := NewEncoder(MPEG2, EncoderOptions{Width: 96, Height: 80, BFrames: -1})
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := EncodeFrames(enc, gen.Generate(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if p.Type == FrameB {
			t.Fatal("B frame produced with BFrames: -1")
		}
	}
}

// TestTableVShape runs the mini suite and checks the paper's headline
// orderings: at equal quantizer the bitrate ladder is
// H.264 < MPEG-4 < MPEG-2 (Table V / §VI).
func TestTableVShape(t *testing.T) {
	o := SuiteOptions{
		Frames:      5,
		Resolutions: []Resolution{{Name: "test", Width: 160, Height: 96}},
	}
	results, err := RunTableV(o)
	if err != nil {
		t.Fatal(err)
	}
	type kbps map[Codec]float64
	bySeq := map[Sequence]kbps{}
	for _, r := range results {
		if bySeq[r.Sequence] == nil {
			bySeq[r.Sequence] = kbps{}
		}
		bySeq[r.Sequence][r.Codec] = r.Kbps
	}
	violations := 0
	for seq, m := range bySeq {
		if !(m[H264] < m[MPEG4] && m[MPEG4] < m[MPEG2]) {
			t.Logf("%v: H.264 %.0f, MPEG-4 %.0f, MPEG-2 %.0f", seq, m[H264], m[MPEG4], m[MPEG2])
			violations++
		}
	}
	// The ordering must hold on the clear majority of sequences (the paper
	// itself has riverbed compressing poorly for everyone).
	if violations > 1 {
		t.Errorf("bitrate ladder violated on %d of %d sequences", violations, len(bySeq))
	}
}

// TestSIMDNotSlower verifies the Figure 1 kernel axis is wired: the SWAR
// encoder must not be slower than the scalar one (the strict >1 speed-up
// shape is measured by the benchmarks, where timing is controlled). It is
// a wall-clock test, so it skips under the race detector, whose
// instrumentation costs the SWAR kernels more than the scalar loops. The
// paper-matrix receipt's "SWAR ≥ scalar in every cell" assertion is to
// replace it.
func TestSIMDNotSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("timing test: the race detector slows SWAR more than scalar")
	}
	run := func(simd bool) time.Duration {
		gen := NewSequence(PedestrianArea, 320, 240)
		frames := gen.Generate(6)
		enc, err := NewEncoder(MPEG2, EncoderOptions{Width: 320, Height: 240, SIMD: simd})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC() // collect the last run's garbage outside the timed span
		start := time.Now()
		if _, err := EncodeFrames(enc, frames); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	run(false) // warm up page cache / JIT-free but warms branch predictors
	// The verdict is the median of nine back-to-back pairs (each pair
	// alternating which side runs first), so a machine whose speed drifts
	// between runs moves both halves of a pair together, and a burst of
	// load from other processes spoils one pair, not the verdict.
	type pair struct{ scalar, simd time.Duration }
	pairs := make([]pair, 9)
	for i := range pairs {
		if i%2 == 0 {
			pairs[i].scalar = run(false)
			pairs[i].simd = run(true)
		} else {
			pairs[i].simd = run(true)
			pairs[i].scalar = run(false)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i].simd*pairs[j].scalar < pairs[j].simd*pairs[i].scalar
	})
	scalar, simd := pairs[len(pairs)/2].scalar, pairs[len(pairs)/2].simd
	t.Logf("median pair: scalar %v, SIMD %v, speed-up %.2fx", scalar, simd, scalar.Seconds()/simd.Seconds())
	if simd > scalar*11/10 {
		t.Errorf("SWAR encode slower than scalar: %v vs %v", simd, scalar)
	}
}

func TestDescribeAndFormatters(t *testing.T) {
	if Describe() == "" {
		t.Error("empty describe")
	}
	o := SuiteOptions{
		Frames:      3,
		Resolutions: []Resolution{{Name: "test", Width: 96, Height: 80}},
		Sequences:   []Sequence{RushHour},
	}
	rs, err := RunTableV(o)
	if err != nil {
		t.Fatal(err)
	}
	if FormatTableV(rs) == "" || Gains(rs) == "" {
		t.Error("empty reports")
	}
}

// TestPublicStreamingRoundTrip drives the public streaming API end to
// end: EncodeStream must reproduce the batch container bytes, Transcode
// must convert it, and DecodeStream must recover every frame.
func TestPublicStreamingRoundTrip(t *testing.T) {
	const w, h, n, gop = 96, 80, 10, 3
	opts := EncoderOptions{Width: w, Height: h, IntraPeriod: gop, Workers: 4, SearchRange: 8, Refs: 2}

	// Batch reference.
	inputs := NewSequence(BlueSky, w, h).Generate(n)
	pkts, hdr, err := EncodeFramesParallel(MPEG2, opts, inputs)
	if err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	if err := WriteStream(&batch, hdr, pkts); err != nil {
		t.Fatal(err)
	}

	// Streaming encode.
	gen := NewSequence(BlueSky, w, h)
	i := 0
	var streamed bytes.Buffer
	stats, err := EncodeStream(&streamed, MPEG2, opts, 0, func() (*Frame, error) {
		if i >= n {
			return nil, io.EOF
		}
		f := gen.Frame(i)
		i++
		return f, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != n {
		t.Fatalf("encoded %d frames, want %d", stats.Frames, n)
	}
	if !bytes.Equal(streamed.Bytes(), batch.Bytes()) {
		t.Fatalf("streaming container differs from batch (%d vs %d bytes)", streamed.Len(), batch.Len())
	}

	// Streaming transcode MPEG-2 -> H.264.
	var h264 bytes.Buffer
	tstats, err := Transcode(bytes.NewReader(streamed.Bytes()), &h264, H264,
		EncoderOptions{IntraPeriod: gop, Workers: 2, SearchRange: 8, Refs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tstats.Frames != n {
		t.Fatalf("transcoded %d frames, want %d", tstats.Frames, n)
	}

	// Streaming decode of the transcoded stream.
	count := 0
	dhdr, _, err := DecodeStream(bytes.NewReader(h264.Bytes()), false, 2, 0, func(f *Frame) error {
		if f.PTS != count {
			return fmt.Errorf("frame %d: PTS %d", count, f.PTS)
		}
		if p := PSNR(inputs[count], f); p < 20 {
			return fmt.Errorf("frame %d: PSNR %.2f dB after transcode", count, p)
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if dhdr.Width != w || dhdr.Height != h {
		t.Fatalf("decoded header %dx%d", dhdr.Width, dhdr.Height)
	}
	if count != n {
		t.Fatalf("decoded %d frames, want %d", count, n)
	}
}

// TestRawFrameReader round-trips frames through WriteRaw and the
// streaming raw reader, checking PTS stamping and clean EOF.
func TestRawFrameReader(t *testing.T) {
	const w, h, n = 96, 80, 4
	frames := NewSequence(RushHour, w, h).Generate(n)
	var raw bytes.Buffer
	for _, f := range frames {
		if err := f.WriteRaw(&raw); err != nil {
			t.Fatal(err)
		}
	}
	rr := NewRawFrameReader(bytes.NewReader(raw.Bytes()), w, h)
	for i := 0; i < n; i++ {
		f, err := rr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.PTS != i {
			t.Fatalf("frame %d: PTS %d", i, f.PTS)
		}
		if p := PSNR(frames[i], f); p < 100 {
			t.Fatalf("frame %d: lossy raw round trip (PSNR %.2f)", i, p)
		}
	}
	if _, err := rr.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
	if rr.Count() != n {
		t.Fatalf("Count = %d, want %d", rr.Count(), n)
	}
}
