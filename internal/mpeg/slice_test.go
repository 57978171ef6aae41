package mpeg

import (
	"strings"
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/seqgen"
)

// TestCorruptSliceFailsCleanly flips bits inside exactly one slice of a
// frame: decoding that frame must fail with an error naming the slice
// (never a panic), while the stream's other frames — and the same frame
// with the corruption reverted — stay decodable. This is the containment
// property the per-slice length table buys.
func TestCorruptSliceFailsCleanly(t *testing.T) {
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			const w, h, slices = 96, 80, 4
			cfg := codec.Default(w, h)
			cfg.Slices = slices
			cfg.BFrames = 0
			cfg.IntraPeriod = 1 // every frame an I frame: frames decode independently

			enc, err := NewEncoder(cfg, p.id)
			if err != nil {
				t.Fatal(err)
			}
			inputs := seqgen.New(seqgen.RushHour, w, h).Generate(2)
			var pkts []container.Packet
			for _, f := range inputs {
				ps, err := enc.Encode(f)
				if err != nil {
					t.Fatal(err)
				}
				pkts = append(pkts, ps...)
			}
			ps, err := enc.Flush()
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, ps...)
			if len(pkts) != 2 {
				t.Fatalf("encoded %d packets, want 2", len(pkts))
			}

			// Locate slice 2 of frame 0 and trash its bytes.
			spans, off, err := codec.ParseSliceTable(pkts[0].Payload[1:], h/16)
			if err != nil {
				t.Fatal(err)
			}
			if len(spans) != slices {
				t.Fatalf("%d slices, want %d", len(spans), slices)
			}
			lo := 1 + off + spans[0].Size + spans[1].Size
			corrupt := append([]byte(nil), pkts[0].Payload...)
			orig := append([]byte(nil), corrupt[lo:lo+spans[2].Size]...)
			for i := lo; i < lo+spans[2].Size; i++ {
				corrupt[i] ^= 0xA5
			}

			dec, err := NewDecoder(enc.Header(), kernel.Scalar)
			if err != nil {
				t.Fatal(err)
			}
			bad := pkts[0]
			bad.Payload = corrupt
			if _, err := dec.Decode(bad); err == nil {
				t.Fatal("corrupted slice decoded without error")
			} else if !strings.Contains(err.Error(), "slice 2") {
				t.Fatalf("error does not name the corrupted slice: %v", err)
			}

			// The next frame (an independent I frame) still decodes on the same
			// decoder instance, and the reverted packet decodes too.
			if _, err := dec.Decode(pkts[1]); err != nil {
				t.Fatalf("later frame failed after a contained slice error: %v", err)
			}
			copy(corrupt[lo:], orig)
			dec2, err := NewDecoder(enc.Header(), kernel.Scalar)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dec2.Decode(bad); err != nil {
				t.Fatalf("reverted packet failed: %v", err)
			}
		})
	}
}
