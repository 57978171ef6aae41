// Package mpeg4_test fuzzes the MPEG-4 profile of internal/mpeg. It has
// no code of its own: the directory holds the target's seed corpus under
// testdata/fuzz/FuzzDecodeMPEG4/.
package mpeg4_test

import (
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/codec/codectest"
	"hdvideobench/internal/container"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/mpeg"
)

// FuzzDecodeMPEG4 is the MPEG-4 instance of the shared differential
// decode fuzzer (see codectest.FuzzDecode): one and two slices.
func FuzzDecodeMPEG4(f *testing.F) {
	one := codec.Default(96, 80)
	two := one
	two.Slices = 2
	codectest.FuzzDecode(f,
		func(cfg codec.Config) (codec.Encoder, error) { return mpeg.NewEncoder(cfg, container.CodecMPEG4) },
		func(hdr container.Header) (codec.Decoder, error) { return mpeg.NewDecoder(hdr, kernel.SWAR) },
		[]codec.Config{one, two})
}
