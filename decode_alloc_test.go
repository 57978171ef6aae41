package hdvideobench

import "testing"

// TestDecodeAllocsNotPerMacroblock pins the decoders' allocation shape:
// a steady-state Decode allocates its output frame (the frame header and
// three planes), the parsed slice table and the slice of frames it hands
// back — the same handful of objects for a 30-macroblock picture and a
// 300-macroblock one. Anything allocated per macroblock, block or symbol
// would make the second count larger than the first.
func TestDecodeAllocsNotPerMacroblock(t *testing.T) {
	for _, c := range []Codec{MPEG2, MPEG4, H264} {
		var perSize []float64
		for _, size := range [][2]int{{96, 80}, {320, 240}} {
			w, h := size[0], size[1]
			enc, err := NewEncoder(c, EncoderOptions{Width: w, Height: h, SIMD: true, BFrames: 0})
			if err != nil {
				t.Fatal(err)
			}
			pkts, err := EncodeFrames(enc, NewSequence(RushHour, w, h).Generate(3))
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecoder(enc.Header(), true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts { // warm: per-slice state, references
				if _, err := dec.Decode(p); err != nil {
					t.Fatal(err)
				}
			}
			last := pkts[len(pkts)-1] // a P frame; decoding it again is as good as the next one
			perSize = append(perSize, testing.AllocsPerRun(20, func() {
				if _, err := dec.Decode(last); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("%v: %.0f allocations per Decode at 96x80, %.0f at 320x240", c, perSize[0], perSize[1])
		if perSize[1] != perSize[0] || perSize[0] > 10 {
			t.Errorf("%v: %.0f allocations per Decode at 96x80, %.0f at 320x240: want equal and at most 10", c, perSize[0], perSize[1])
		}
	}
}
