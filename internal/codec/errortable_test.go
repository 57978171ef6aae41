package codec_test

import (
	"fmt"
	"strings"
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/h264"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/mpeg"
	"hdvideobench/internal/seqgen"
)

// retable rebuilds p's payload with edit applied to its slice table and
// body (the quantizer byte stays).
func retable(t *testing.T, p container.Packet, mbRows int, edit func(spans []codec.SliceSpan, body []byte) []byte) container.Packet {
	t.Helper()
	spans, off, err := codec.ParseSliceTable(p.Payload[1:], mbRows)
	if err != nil {
		t.Fatal(err)
	}
	body := edit(spans, append([]byte(nil), p.Payload[1+off:]...))
	p.Payload = append(codec.AppendSliceTable([]byte{p.Payload[0]}, spans), body...)
	return p
}

// TestDecoderErrorTable damages one valid I-P-B-B stream (96×80, two
// slices, rate-targeted so every slice carries its quantizer) per decoder
// — the driver over the toy slice coder, then each real codec — in the
// same ways, and requires the same error for the same damage: everything
// a packet can get wrong outside a slice is the driver's to report, once.
func TestDecoderErrorTable(t *testing.T) {
	const w, h, mbRows = 96, 80, 5
	cfg := codec.Default(w, h)
	cfg.Slices, cfg.TargetKbps, cfg.Kernels = 2, 300, kernel.SWAR

	type factory struct {
		name   string
		newEnc func() (codec.Encoder, error)
		newDec func(hdr container.Header) (codec.Decoder, error)
	}
	for _, f := range []factory{
		{"toy",
			func() (codec.Encoder, error) {
				return codec.NewFrameEncoder("toy", cfg, toyCodec, 0, 2, &toy{})
			},
			func(hdr container.Header) (codec.Decoder, error) {
				return codec.NewFrameDecoder("toy", hdr, toyCodec, 101, 131, 2, &toy{})
			}},
		{"mpeg2",
			func() (codec.Encoder, error) { return mpeg.NewEncoder(cfg, container.CodecMPEG2) },
			func(hdr container.Header) (codec.Decoder, error) { return mpeg.NewDecoder(hdr, kernel.SWAR) }},
		{"mpeg4",
			func() (codec.Encoder, error) { return mpeg.NewEncoder(cfg, container.CodecMPEG4) },
			func(hdr container.Header) (codec.Decoder, error) { return mpeg.NewDecoder(hdr, kernel.SWAR) }},
		{"h264",
			func() (codec.Encoder, error) { return h264.NewEncoder(cfg) },
			func(hdr container.Header) (codec.Decoder, error) { return h264.NewDecoder(hdr, kernel.SWAR) }},
	} {
		enc, err := f.newEnc()
		if err != nil {
			t.Fatal(err)
		}
		// Coding order: I0 P3 B1 B2.
		pkts := encodeFrames(t, enc, seqgen.New(seqgen.RushHour, w, h).Generate(4))
		if got := fmt.Sprintf("%c%c%c%c", pkts[0].Type, pkts[1].Type, pkts[2].Type, pkts[3].Type); got != "IPBB" || len(pkts) != 4 {
			t.Fatalf("%s: stream is %s (%d packets)", f.name, got, len(pkts))
		}

		for _, tc := range []struct {
			name   string
			prefix []int                                     // valid packets decoded first
			pick   int                                       // the packet to damage
			damage func(p container.Packet) container.Packet // nil: the packet as it is
			want   string
		}{
			{"empty packet", nil, 0,
				func(p container.Packet) container.Packet { p.Payload = nil; return p },
				"empty packet"},
			{"quantizer out of range", nil, 0,
				func(p container.Packet) container.Packet {
					p.Payload = append([]byte{255}, p.Payload[1:]...)
					return p
				},
				"invalid quantizer 255"},
			{"P before a reference", nil, 1,
				nil,
				"P frame before any reference"},
			{"B without two references", []int{0}, 2,
				nil,
				"B frame without two references"},
			{"unknown frame type", nil, 0,
				func(p container.Packet) container.Packet { p.Type = 'X'; return p },
				"unknown frame type X"},
			{"truncated slice table", nil, 0,
				func(p container.Packet) container.Packet { p.Payload = p.Payload[:4]; return p },
				"codec: slice table: truncated"},
			{"empty FlagSliceQ body", nil, 0,
				func(p container.Packet) container.Packet {
					return retable(t, p, mbRows, func(spans []codec.SliceSpan, body []byte) []byte {
						spans[1].Size += spans[0].Size
						spans[0].Size = 0
						return body
					})
				},
				"slice 0 (rows 0-2): empty slice body"},
			{"slice quantizer out of range", nil, 0,
				func(p container.Packet) container.Packet {
					return retable(t, p, mbRows, func(spans []codec.SliceSpan, body []byte) []byte {
						body[spans[0].Size] = 255
						return body
					})
				},
				"slice 1 (rows 3-4): invalid slice quantizer 255"},
			{"slice cut to its quantizer byte", nil, 0,
				func(p container.Packet) container.Packet {
					return retable(t, p, mbRows, func(spans []codec.SliceSpan, body []byte) []byte {
						body = body[:spans[0].Size+1]
						spans[1].Size = 1
						return body
					})
				},
				"slice 1 (rows 3-4): "},
			{"display index delivered before", []int{0}, 0,
				nil,
				"display index 0 repeats a delivered frame"},
			{"display index already pending", []int{0, 1}, 1,
				nil,
				"display index 3 repeats a pending frame"},
		} {
			t.Run(f.name+"/"+tc.name, func(t *testing.T) {
				dec, err := f.newDec(enc.Header())
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range tc.prefix {
					if _, err := dec.Decode(pkts[k]); err != nil {
						t.Fatalf("valid packet %d: %v", k, err)
					}
				}
				p := pkts[tc.pick]
				if tc.damage != nil {
					p = tc.damage(p)
				}
				fs, err := dec.Decode(p)
				if err == nil || len(fs) != 0 {
					t.Fatalf("decoded %d frames, err = %v", len(fs), err)
				}
				if want := f.name + ": " + tc.want; !strings.HasPrefix(err.Error(), want) {
					t.Errorf("err = %q, want %q…", err, want)
				}
			})
		}
	}
}
