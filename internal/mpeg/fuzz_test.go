package mpeg

import (
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/codec/codectest"
	"hdvideobench/internal/container"
	"hdvideobench/internal/kernel"
)

// FuzzDecodeMPEG2 is the MPEG-2 instance of the shared differential
// decode fuzzer (see codectest.FuzzDecode): one and two slices. The
// MPEG-4 profile's target is in the test-only internal/mpeg4.
func FuzzDecodeMPEG2(f *testing.F) {
	one := codec.Default(96, 80)
	two := one
	two.Slices = 2
	codectest.FuzzDecode(f,
		func(cfg codec.Config) (codec.Encoder, error) { return NewEncoder(cfg, container.CodecMPEG2) },
		func(hdr container.Header) (codec.Decoder, error) { return NewDecoder(hdr, kernel.SWAR) },
		[]codec.Config{one, two})
}
