// Slice-parallelism determinism suite: the intra-frame (macroblock-row
// slice) axis must behave exactly like the GOP axis — for a fixed slice
// count the bitstream and the decode are byte-identical at every worker
// count — and the prediction clamping at slice boundaries must cost only
// a small, bounded amount of quality. The matrix runs at the paper's
// IntraPeriod == 0 default, the setting where GOP chunking degenerates
// to one segment and slices are the only parallelism.
package core_test

import (
	"fmt"
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/core"
	"hdvideobench/internal/metrics"
	"hdvideobench/internal/seqgen"
)

const sliceFrames = 6 // I P B B P P at the paper's BFrames=2

// slicePSNRBound is the documented quality cost ceiling of slicing:
// splitting a frame into up to 4 slices clamps intra prediction and MV
// predictors at 3 extra row boundaries, which on the benchmark content
// must not cost more than half a dB of luma PSNR versus one slice.
const slicePSNRBound = 0.5

var sliceCounts = []int{1, 2, 4}

func sliceConfig(w, h, slices int) codec.Config {
	cfg := codec.Default(w, h)
	cfg.IntraPeriod = 0 // the paper's first-frame-only-intra setting
	cfg.SearchRange = 8
	cfg.Refs = 2
	cfg.Slices = slices
	return cfg
}

// TestSliceParallelMatchesSerial is the slice equivalence matrix:
// 3 codecs × {576p, 720p} × slices {1, 2, 4} × workers {1, 4}. For every
// fixed slice count the 4-worker encode must reproduce the 1-worker
// bitstream byte for byte and the 4-worker decode must reproduce the
// 1-worker decode plane for plane, even though IntraPeriod == 0 gives
// the GOP scheduler nothing to chunk.
func TestSliceParallelMatchesSerial(t *testing.T) {
	for _, res := range detResolutions {
		if testing.Short() && res.name == "720p" {
			continue
		}
		t.Run(res.name, func(t *testing.T) {
			inputs := seqgen.New(seqgen.PedestrianArea, res.w, res.h).Generate(sliceFrames)
			for _, id := range core.AllCodecs {
				t.Run(id.String(), func(t *testing.T) {
					for _, slices := range sliceCounts {
						t.Run(fmt.Sprintf("slices=%d", slices), func(t *testing.T) {
							cfg := sliceConfig(res.w, res.h, slices)
							refPkts, hdr, err := core.EncodeSequenceParallel(id, cfg, inputs, 1)
							if err != nil {
								t.Fatalf("serial encode: %v", err)
							}
							refFrames, err := core.DecodePacketsParallel(hdr, cfg.Kernels, refPkts, 1)
							if err != nil {
								t.Fatalf("serial decode: %v", err)
							}
							if len(refFrames) != len(inputs) {
								t.Fatalf("serial decode returned %d of %d frames", len(refFrames), len(inputs))
							}

							pkts, _, err := core.EncodeSequenceParallel(id, cfg, inputs, 4)
							if err != nil {
								t.Fatalf("parallel encode: %v", err)
							}
							packetsEqual(t, refPkts, pkts)
							decoded, err := core.DecodePacketsParallel(hdr, cfg.Kernels, pkts, 4)
							if err != nil {
								t.Fatalf("parallel decode: %v", err)
							}
							framesEqual(t, refFrames, decoded)
						})
					}
				})
			}
		})
	}
}

// TestSlicePSNRWithinBound pins the quality price of slicing: the
// 4-slice stream must stay within slicePSNRBound dB of the 1-slice
// stream on every codec (576p, the paper's DVD size).
func TestSlicePSNRWithinBound(t *testing.T) {
	const w, h = 720, 576
	inputs := seqgen.New(seqgen.PedestrianArea, w, h).Generate(sliceFrames)
	psnr := func(id core.CodecID, slices int) float64 {
		cfg := sliceConfig(w, h, slices)
		pkts, hdr, err := core.EncodeSequenceParallel(id, cfg, inputs, 1)
		if err != nil {
			t.Fatalf("%v slices=%d: encode: %v", id, slices, err)
		}
		decoded, err := core.DecodePacketsParallel(hdr, cfg.Kernels, pkts, 1)
		if err != nil {
			t.Fatalf("%v slices=%d: decode: %v", id, slices, err)
		}
		var acc metrics.Accumulator
		for i := range inputs {
			acc.AddFrame(inputs[i], decoded[i], 0)
		}
		return acc.PSNR()
	}
	for _, id := range core.AllCodecs {
		one := psnr(id, 1)
		four := psnr(id, 4)
		t.Logf("%v: slices=1 %.3f dB, slices=4 %.3f dB (Δ %.3f)", id, one, four, one-four)
		if four < one-slicePSNRBound {
			t.Errorf("%v: 4-slice PSNR %.3f dB is more than %.1f dB below 1-slice %.3f dB",
				id, four, slicePSNRBound, one)
		}
	}
}

// TestSliceCountSurvivesTranscode checks the decoder picks the slice
// count up from the packet, not the config: a 3-slice stream decodes on
// a decoder that knows nothing about slicing, and frames match the
// encoder's reconstruction path end to end.
func TestSliceCountSurvivesTranscode(t *testing.T) {
	const w, h = 96, 80
	inputs := seqgen.New(seqgen.BlueSky, w, h).Generate(4)
	cfg := sliceConfig(w, h, 3)
	pkts, hdr, err := core.EncodeSequenceParallel(core.MPEG2, cfg, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every frame payload must carry the 3-slice table.
	for i, p := range pkts {
		spans, _, err := codec.ParseSliceTable(p.Payload[1:], h/16)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if len(spans) != 3 {
			t.Fatalf("packet %d: %d slices in table, want 3", i, len(spans))
		}
	}
	decoded, err := core.DecodePackets(hdr, cfg.Kernels, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(inputs) {
		t.Fatalf("decoded %d of %d frames", len(decoded), len(inputs))
	}
	for i := range decoded {
		if psnr := metrics.PSNRFrames(inputs[i], decoded[i]); psnr < 20 {
			t.Fatalf("frame %d: PSNR %.1f dB — sliced decode is broken", i, psnr)
		}
	}
}
