package hdvideobench

import (
	"fmt"
	"testing"
)

// BenchmarkDecode720p is the dec_serial workload of bench/ one cell at a
// time: one caller decodes an 8-frame 720p clip coded with the paper's
// options and the SWAR kernels, per codec and per sequence. It reports
// ms/frame — the number the paper's 25 frames/s line (40 ms) is drawn
// against — and is the per-codec receipt behind a dec_serial claim.
func BenchmarkDecode720p(b *testing.B) {
	const w, h, frames = 1280, 720, 8
	for _, seq := range []Sequence{Riverbed, BlueSky} {
		inputs := benchInputsN(b, seq, w, h, frames)
		for _, c := range benchCodecs {
			enc, err := NewEncoder(c, EncoderOptions{Width: w, Height: h, SIMD: true})
			if err != nil {
				b.Fatal(err)
			}
			pkts, err := EncodeFrames(enc, inputs)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%v/%v", c, seq), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dec, err := NewDecoder(enc.Header(), true)
					if err != nil {
						b.Fatal(err)
					}
					out, err := DecodePackets(dec, pkts)
					if err != nil || len(out) != frames {
						b.Fatalf("decoded %d frames: %v", len(out), err)
					}
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*frames), "ms/frame")
			})
		}
	}
}
