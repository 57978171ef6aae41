// Package mpeg2_test fuzzes the MPEG-2 profile of internal/mpeg. It has
// no code of its own: the directory holds the target's seed corpus under
// testdata/fuzz/FuzzDecodeMPEG2/.
package mpeg2_test

import (
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/codec/codectest"
	"hdvideobench/internal/container"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/mpeg"
)

// FuzzDecodeMPEG2 is the MPEG-2 instance of the shared differential
// decode fuzzer (see codectest.FuzzDecode): one and two slices.
func FuzzDecodeMPEG2(f *testing.F) {
	one := codec.Default(96, 80)
	two := one
	two.Slices = 2
	codectest.FuzzDecode(f,
		func(cfg codec.Config) (codec.Encoder, error) { return mpeg.NewEncoder(cfg, container.CodecMPEG2) },
		func(hdr container.Header) (codec.Decoder, error) { return mpeg.NewDecoder(hdr, kernel.SWAR) },
		[]codec.Config{one, two})
}
