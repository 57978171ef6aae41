package mpeg4

import (
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/codec/codectest"
	"hdvideobench/internal/container"
	"hdvideobench/internal/kernel"
)

// FuzzDecodeMPEG4 is this package's instance of the shared differential
// decode fuzzer (see codectest.FuzzDecode): one and two slices.
func FuzzDecodeMPEG4(f *testing.F) {
	one := codec.Default(96, 80)
	two := one
	two.Slices = 2
	codectest.FuzzDecode(f,
		func(cfg codec.Config) (codec.Encoder, error) { return NewEncoder(cfg) },
		func(hdr container.Header) (codec.Decoder, error) { return NewDecoder(hdr, kernel.SWAR) },
		[]codec.Config{one, two})
}
