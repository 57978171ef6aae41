package mpeg

import (
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/metrics"
	"hdvideobench/internal/seqgen"
)

// profiles is the table the per-profile tests run over, with the figures
// that differ between the two codecs.
var profiles = []struct {
	name    string
	id      container.Codec
	minPSNR float64 // TestRoundTripQuality's per-frame floor at the default Q
	cutI    []byte  // a truncated I-frame payload (TestDecoderErrors)
}{
	{"MPEG-2", container.CodecMPEG2, 28, []byte{0xFF, 0x00, 0x13}},
	{"MPEG-4", container.CodecMPEG4, 26, []byte{0xFF, 0x01}},
}

// encodeDecode runs the full encode→decode loop and returns inputs, decoded
// frames and total coded bits.
func encodeDecode(t *testing.T, id container.Codec, cfg codec.Config, seq seqgen.Sequence, n int, encK, decK kernel.Set) ([]*frame.Frame, []*frame.Frame, int) {
	t.Helper()
	cfg.Kernels = encK
	enc, err := NewEncoder(cfg, id)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(enc.Header(), decK)
	if err != nil {
		t.Fatal(err)
	}
	gen := seqgen.New(seq, cfg.Width, cfg.Height)
	inputs := gen.Generate(n)

	var decoded []*frame.Frame
	bits := 0
	feed := func(pkts []container.Packet, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			bits += 8 * len(p.Payload)
			fs, err := dec.Decode(p)
			if err != nil {
				t.Fatal(err)
			}
			decoded = append(decoded, fs...)
		}
	}
	for _, f := range inputs {
		feed(enc.Encode(f))
	}
	feed(enc.Flush())
	decoded = append(decoded, dec.Flush()...)
	return inputs, decoded, bits
}

func TestRoundTripQuality(t *testing.T) {
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			cfg := codec.Default(96, 80)
			inputs, decoded, bits := encodeDecode(t, p.id, cfg, seqgen.RushHour, 7, kernel.Scalar, kernel.Scalar)
			if len(decoded) != len(inputs) {
				t.Fatalf("decoded %d frames, want %d", len(decoded), len(inputs))
			}
			for i, f := range decoded {
				if f.PTS != i {
					t.Fatalf("frame %d has PTS %d — display order broken", i, f.PTS)
				}
				psnr := metrics.PSNRFrames(inputs[i], f)
				if psnr < p.minPSNR {
					t.Errorf("frame %d PSNR %.2f dB too low at Q=%d", i, psnr, cfg.Q)
				}
			}
			raw := 8 * frame.RawSize(cfg.Width, cfg.Height) * len(inputs)
			if bits >= raw/2 {
				t.Errorf("no compression: %d bits vs %d raw", bits, raw)
			}
		})
	}
}

func TestScalarSWARBitExact(t *testing.T) {
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			cfg := codec.Default(96, 80)
			cfgS := cfg
			cfgS.Kernels = kernel.Scalar
			cfgW := cfg
			cfgW.Kernels = kernel.SWAR
			encS, _ := NewEncoder(cfgS, p.id)
			encW, _ := NewEncoder(cfgW, p.id)
			gen := seqgen.New(seqgen.PedestrianArea, cfg.Width, cfg.Height)

			var pktsS, pktsW []container.Packet
			for i := 0; i < 7; i++ {
				ps, err := encS.Encode(gen.Frame(i))
				if err != nil {
					t.Fatal(err)
				}
				pw, err := encW.Encode(gen.Frame(i))
				if err != nil {
					t.Fatal(err)
				}
				pktsS = append(pktsS, ps...)
				pktsW = append(pktsW, pw...)
			}
			ps, _ := encS.Flush()
			pw, _ := encW.Flush()
			pktsS = append(pktsS, ps...)
			pktsW = append(pktsW, pw...)

			if len(pktsS) != len(pktsW) {
				t.Fatalf("packet counts differ: %d vs %d", len(pktsS), len(pktsW))
			}
			for i := range pktsS {
				if len(pktsS[i].Payload) != len(pktsW[i].Payload) {
					t.Fatalf("packet %d size differs: %d vs %d — scalar and SWAR kernels diverge",
						i, len(pktsS[i].Payload), len(pktsW[i].Payload))
				}
				for j := range pktsS[i].Payload {
					if pktsS[i].Payload[j] != pktsW[i].Payload[j] {
						t.Fatalf("packet %d byte %d differs", i, j)
					}
				}
			}
			// Decoding with either kernel set must give identical frames.
			decS, _ := NewDecoder(encS.Header(), kernel.Scalar)
			decW, _ := NewDecoder(encW.Header(), kernel.SWAR)
			for i := range pktsS {
				fs, err := decS.Decode(pktsS[i])
				if err != nil {
					t.Fatal(err)
				}
				fw, err := decW.Decode(pktsW[i])
				if err != nil {
					t.Fatal(err)
				}
				if len(fs) != len(fw) {
					t.Fatal("decoder output counts differ")
				}
				for k := range fs {
					if metrics.PSNRFrames(fs[k], fw[k]) != 100 {
						t.Fatalf("decoded frame %d differs between kernel sets", fs[k].PTS)
					}
				}
			}
		})
	}
}

func TestDecoderKernelEquivalence(t *testing.T) {
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			cfg := codec.Default(96, 80)
			cfg.Kernels = kernel.Scalar
			enc, _ := NewEncoder(cfg, p.id)
			gen := seqgen.New(seqgen.BlueSky, cfg.Width, cfg.Height)
			var pkts []container.Packet
			for i := 0; i < 7; i++ {
				ps, _ := enc.Encode(gen.Frame(i))
				pkts = append(pkts, ps...)
			}
			ps, _ := enc.Flush()
			pkts = append(pkts, ps...)

			decS, _ := NewDecoder(enc.Header(), kernel.Scalar)
			decW, _ := NewDecoder(enc.Header(), kernel.SWAR)
			for _, pkt := range pkts {
				fs, err := decS.Decode(pkt)
				if err != nil {
					t.Fatal(err)
				}
				fw, err := decW.Decode(pkt)
				if err != nil {
					t.Fatal(err)
				}
				for k := range fs {
					if metrics.PSNRFrames(fs[k], fw[k]) != 100 {
						t.Fatalf("decoded frame %d differs between kernel sets", fs[k].PTS)
					}
				}
			}
		})
	}
}

func TestGOPStructure(t *testing.T) {
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			cfg := codec.Default(96, 80)
			cfg.Kernels = kernel.Scalar
			enc, _ := NewEncoder(cfg, p.id)
			gen := seqgen.New(seqgen.RushHour, cfg.Width, cfg.Height)
			var types []container.FrameType
			for i := 0; i < 7; i++ {
				pkts, err := enc.Encode(gen.Frame(i))
				if err != nil {
					t.Fatal(err)
				}
				for _, pkt := range pkts {
					types = append(types, pkt.Type)
				}
			}
			pkts, _ := enc.Flush()
			for _, pkt := range pkts {
				types = append(types, pkt.Type)
			}
			want := []container.FrameType{'I', 'P', 'B', 'B', 'P', 'B', 'B'}
			if len(types) != len(want) {
				t.Fatalf("coded %d frames: %c", len(types), types)
			}
			for i := range want {
				if types[i] != want[i] {
					t.Fatalf("coding order %c, want %c", types, want)
				}
			}
		})
	}
}

func TestDecoderErrors(t *testing.T) {
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			hdr := container.Header{Codec: p.id, Width: 96, Height: 80, FPSNum: 25, FPSDen: 1}
			dec, err := NewDecoder(hdr, kernel.Scalar)
			if err != nil {
				t.Fatal(err)
			}
			// P frame with no reference.
			if _, err := dec.Decode(container.Packet{Type: container.FrameP, Payload: []byte{0x28}}); err == nil {
				t.Error("P without reference must fail")
			}
			// Wrong codec header: the one codec this package does not serve.
			if _, err := NewDecoder(container.Header{Codec: container.CodecH264, Width: 96, Height: 80}, kernel.Scalar); err == nil {
				t.Error("wrong codec must be rejected")
			}
			// Garbage payload must error, not panic.
			dec2, _ := NewDecoder(hdr, kernel.Scalar)
			if _, err := dec2.Decode(container.Packet{Type: container.FrameI, Payload: p.cutI}); err == nil {
				t.Error("truncated I frame must fail")
			}
		})
	}
}

func TestPOnlyStream(t *testing.T) {
	cfg := codec.Default(96, 80)
	cfg.BFrames = 0
	inputs, decoded, _ := encodeDecode(t, container.CodecMPEG2, cfg, seqgen.BlueSky, 5, kernel.Scalar, kernel.Scalar)
	if len(decoded) != len(inputs) {
		t.Fatalf("decoded %d, want %d", len(decoded), len(inputs))
	}
	for i := range decoded {
		if psnr := metrics.PSNRFrames(inputs[i], decoded[i]); psnr < 27 {
			t.Errorf("frame %d PSNR %.2f", i, psnr)
		}
	}
}

func TestIntraPeriod(t *testing.T) {
	cfg := codec.Default(96, 80)
	cfg.BFrames = 0
	cfg.IntraPeriod = 2
	cfg.Kernels = kernel.Scalar
	enc, _ := NewEncoder(cfg, container.CodecMPEG2)
	gen := seqgen.New(seqgen.RushHour, cfg.Width, cfg.Height)
	var types []container.FrameType
	for i := 0; i < 5; i++ {
		pkts, _ := enc.Encode(gen.Frame(i))
		for _, p := range pkts {
			types = append(types, p.Type)
		}
	}
	want := []container.FrameType{'I', 'P', 'I', 'P', 'I'}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("types %c, want %c", types, want)
		}
	}
}

func TestQualityImprovesWithLowerQ(t *testing.T) {
	psnrAt := func(q int) float64 {
		cfg := codec.Default(96, 80)
		cfg.Q = q
		inputs, decoded, _ := encodeDecode(t, container.CodecMPEG2, cfg, seqgen.PedestrianArea, 4, kernel.Scalar, kernel.Scalar)
		sum := 0.0
		for i := range decoded {
			sum += metrics.PSNRFrames(inputs[i], decoded[i])
		}
		return sum / float64(len(decoded))
	}
	lo, hi := psnrAt(2), psnrAt(20)
	if lo <= hi {
		t.Errorf("PSNR at Q=2 (%.2f) must exceed PSNR at Q=20 (%.2f)", lo, hi)
	}
}

func TestBitrateGrowsWithLowerQ(t *testing.T) {
	bitsAt := func(q int) int {
		cfg := codec.Default(96, 80)
		cfg.Q = q
		_, _, bits := encodeDecode(t, container.CodecMPEG2, cfg, seqgen.PedestrianArea, 4, kernel.Scalar, kernel.Scalar)
		return bits
	}
	if bitsAt(2) <= bitsAt(20) {
		t.Error("bits at Q=2 must exceed bits at Q=20")
	}
}

func TestQualityBitrateTradeoff(t *testing.T) {
	run := func(q int) (float64, int) {
		cfg := codec.Default(96, 80)
		cfg.Q = q
		inputs, decoded, bits := encodeDecode(t, container.CodecMPEG4, cfg, seqgen.PedestrianArea, 4, kernel.Scalar, kernel.Scalar)
		sum := 0.0
		for i := range decoded {
			sum += metrics.PSNRFrames(inputs[i], decoded[i])
		}
		return sum / float64(len(decoded)), bits
	}
	psnrLo, bitsLo := run(2)
	psnrHi, bitsHi := run(20)
	if psnrLo <= psnrHi {
		t.Errorf("PSNR at Q=2 (%.2f) must exceed Q=20 (%.2f)", psnrLo, psnrHi)
	}
	if bitsLo <= bitsHi {
		t.Errorf("bits at Q=2 (%d) must exceed Q=20 (%d)", bitsLo, bitsHi)
	}
}

func TestEncoderRejectsWrongSize(t *testing.T) {
	enc, _ := NewEncoder(codec.Default(96, 80), container.CodecMPEG2)
	if _, err := enc.Encode(frame.New(64, 64)); err == nil {
		t.Error("wrong-size frame must be rejected")
	}
}

func TestEncoderRejectsOtherCodecs(t *testing.T) {
	if _, err := NewEncoder(codec.Default(96, 80), container.CodecH264); err == nil {
		t.Error("an H.264 encoder must be refused")
	}
}

func TestStaticSceneCompressesBetter(t *testing.T) {
	// A P-frame-heavy static scene (rush hour) must use far fewer bits per
	// frame after the first I frame.
	cfg := codec.Default(96, 80)
	cfg.Kernels = kernel.Scalar
	enc, _ := NewEncoder(cfg, container.CodecMPEG2)
	gen := seqgen.New(seqgen.RushHour, cfg.Width, cfg.Height)
	var sizes []int
	for i := 0; i < 4; i++ {
		pkts, _ := enc.Encode(gen.Frame(i))
		for _, p := range pkts {
			sizes = append(sizes, len(p.Payload))
		}
	}
	if len(sizes) < 2 {
		t.Skip("not enough packets")
	}
	if sizes[1] >= sizes[0] {
		t.Errorf("P frame (%d bytes) should be smaller than I frame (%d bytes)", sizes[1], sizes[0])
	}
}

func TestPSkipOnStaticContent(t *testing.T) {
	// A fully static sequence must produce tiny P frames (skip-dominated).
	cfg := codec.Default(96, 80)
	cfg.Kernels = kernel.Scalar
	cfg.BFrames = 0
	enc, _ := NewEncoder(cfg, container.CodecMPEG4)
	static := frame.New(96, 80)
	static.Fill(120, 128, 128)
	var sizes []int
	for i := 0; i < 3; i++ {
		pkts, err := enc.Encode(static.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			sizes = append(sizes, len(p.Payload))
		}
	}
	if len(sizes) != 3 {
		t.Fatalf("got %d packets", len(sizes))
	}
	// P frames of a static scene: ~1 skip symbol per MB.
	mbCount := (96 / 16) * (80 / 16)
	if sizes[1] > mbCount || sizes[2] > mbCount {
		t.Errorf("static P frames too large: %v (MBs=%d)", sizes, mbCount)
	}
}
