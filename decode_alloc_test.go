package hdvideobench

import (
	"runtime"
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/frame"
)

// steadyAllocs is the measured allocation count of one steady-state
// Encode and one steady-state Decode of a P frame, per codec. Encode: the
// GOP entries, the payload, the packet slice and the slice's wavefront
// closure; the reconstruction and its half-pel planes are a frame the
// reference list dropped, recycled. Decode: the output frame, the parsed
// slice table, the slice-dispatch closure and the slice of frames handed
// back. Before the encoders recycled reconstructions they allocated a
// frame (header and three planes), a half-pel plane set (header and
// three planes) and, for the 6-tap codecs, the plane builder's row ring
// per frame (12/13/13); before the shared frame driver a dispatch
// closure too (13/14/14), and H.264 two more in each direction (16 and
// 9) in a codec.RefList.Add that built a fresh list per reference frame.
var steadyAllocs = map[Codec]struct{ enc, dec float64 }{
	MPEG2: {4, 7},
	MPEG4: {4, 7},
	H264:  {4, 7},
}

// TestSteadyStateAllocs pins the codecs' allocation shape: the same
// handful of objects per frame for a 30-macroblock picture and a
// 300-macroblock one, and no more of them than steadyAllocs records.
// Anything allocated per macroblock, block or symbol would make the
// second count larger than the first. At 320x240 an Encode must also
// allocate fewer bytes than one padded picture: a reconstruction or a
// half-pel plane allocated per frame would not fit.
func TestSteadyStateAllocs(t *testing.T) {
	pad := frame.NewPadded(320, 240, codec.RefPad)
	picture := len(pad.Y) + len(pad.Cb) + len(pad.Cr)
	for _, c := range []Codec{MPEG2, MPEG4, H264} {
		var enc, dec []float64
		var encBytes float64
		for _, size := range [][2]int{{96, 80}, {320, 240}} {
			w, h := size[0], size[1]
			e, err := NewEncoder(c, EncoderOptions{Width: w, Height: h, SIMD: true, BFrames: -1})
			if err != nil {
				t.Fatal(err)
			}
			// Warm: per-slice state, references, bitstream writer capacity.
			// One more frame than the reference list is deep, so the list
			// is full and the measured frames evict.
			frames := NewSequence(RushHour, w, h).Generate(8)
			pkts, err := EncodeFrames(e, frames[:6])
			if err != nil {
				t.Fatal(err)
			}
			next := frames[6]
			encode := func() {
				// The same picture again is as good as the next one, and
				// Encode restamps it.
				ps, err := e.Encode(next)
				if err != nil || len(ps) != 1 {
					t.Fatalf("%d packets: %v", len(ps), err)
				}
			}
			enc = append(enc, testing.AllocsPerRun(10, encode))
			encBytes = bytesPerRun(10, encode)

			d, err := NewDecoder(e.Header(), true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				if _, err := d.Decode(p); err != nil {
					t.Fatal(err)
				}
			}
			last := pkts[len(pkts)-1] // a P frame; decoding it again is as good as the next one
			dec = append(dec, testing.AllocsPerRun(20, func() {
				last.DisplayIndex++ // but it has to display after the last
				if _, err := d.Decode(last); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("%v: %.0f allocations per Encode (%.0f bytes at 320x240), %.0f per Decode", c, enc[0], encBytes, dec[0])
		want := steadyAllocs[c]
		if enc[1] != enc[0] || enc[0] > want.enc {
			t.Errorf("%v: %.0f allocations per Encode at 96x80, %.0f at 320x240: want equal and at most %.0f", c, enc[0], enc[1], want.enc)
		}
		if dec[1] != dec[0] || dec[0] > want.dec {
			t.Errorf("%v: %.0f allocations per Decode at 96x80, %.0f at 320x240: want equal and at most %.0f", c, dec[0], dec[1], want.dec)
		}
		if encBytes >= float64(picture) {
			t.Errorf("%v: %.0f bytes per Encode at 320x240, want less than a padded picture (%d)", c, encBytes, picture)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap allocated by
// one call of f, averaged over runs after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
