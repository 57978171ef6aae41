package hdvideobench

import (
	"errors"
	"fmt"
	"testing"

	"hdvideobench/internal/bitstream"
	"hdvideobench/internal/codec"
)

// TestCABACSliceEndsExactly pins how far past its bytes a valid CABAC
// slice makes the range decoder read: not at all. Over the H.264 streams
// of the golden matrix (and a two- and a four-slice stream beside them)
// every packet decodes, and every slice with its final byte taken away
// fails (nearly always as ErrOverrun) — so the decoder's over-read test needs no slack,
// and a damaged slice that runs out of bytes cannot pass for a picture.
func TestCABACSliceEndsExactly(t *testing.T) {
	cases := []struct {
		w, h, slices int
	}{
		{720, 576, 1}, {1280, 720, 1}, // the golden matrix
		{320, 240, 2}, {320, 240, 4},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%dx%d/slices=%d", tc.w, tc.h, tc.slices), func(t *testing.T) {
			inputs := NewSequence(PedestrianArea, tc.w, tc.h).Generate(5)
			enc, err := NewEncoder(H264, EncoderOptions{Width: tc.w, Height: tc.h, SIMD: true, Slices: tc.slices})
			if err != nil {
				t.Fatal(err)
			}
			pkts, err := EncodeFrames(enc, inputs)
			if err != nil {
				t.Fatal(err)
			}
			overruns := 0 // the others trip over a syntax element the zero fill garbled first
			for k, p := range pkts {
				spans, off, err := codec.ParseSliceTable(p.Payload[1:], tc.h/16)
				if err != nil || len(spans) != tc.slices {
					t.Fatalf("packet %d: %d slices: %v", k, len(spans), err)
				}
				end := 1 + off
				for i := range spans {
					end += spans[i].Size
					// The same packet with the last byte of slice i removed.
					short := append([]codec.SliceSpan(nil), spans...)
					short[i].Size--
					cut := append([]byte{p.Payload[0]}, codec.AppendSliceTable(nil, short)...)
					cut = append(cut, p.Payload[1+off:end-1]...)
					cut = append(cut, p.Payload[end:]...)

					dec, err := NewDecoder(enc.Header(), true)
					if err != nil {
						t.Fatal(err)
					}
					for _, before := range pkts[:k] {
						if _, err := dec.Decode(before); err != nil {
							t.Fatalf("packet %d: valid stream failed: %v", k, err)
						}
					}
					damaged := p
					damaged.Payload = cut
					_, err = dec.Decode(damaged)
					if err == nil {
						t.Fatalf("packet %d slice %d decoded one byte short", k, i)
					}
					if errors.Is(err, bitstream.ErrOverrun) {
						overruns++
					}
				}
			}
			if overruns == 0 {
				t.Fatal("no short slice was reported as ErrOverrun")
			}
			dec, err := NewDecoder(enc.Header(), true)
			if err != nil {
				t.Fatal(err)
			}
			if out, err := DecodePackets(dec, pkts); err != nil || len(out) != len(inputs) {
				t.Fatalf("valid stream: %d frames, %v", len(out), err)
			}
		})
	}
}
