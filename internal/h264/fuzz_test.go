package h264

import (
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/codec/codectest"
	"hdvideobench/internal/container"
	"hdvideobench/internal/kernel"
)

// FuzzDecodeH264 is this package's instance of the shared differential
// decode fuzzer (see codectest.FuzzDecode): one and two slices, each with
// the CABAC coder and with the Exp-Golomb VLC ablation.
func FuzzDecodeH264(f *testing.F) {
	var cfgs []codec.Config
	for _, mode := range []codec.EntropyMode{codec.EntropyCABAC, codec.EntropyVLC} {
		for _, slices := range []int{1, 2} {
			cfg := codec.Default(96, 80)
			cfg.Entropy = mode
			cfg.Slices = slices
			cfgs = append(cfgs, cfg)
		}
	}
	codectest.FuzzDecode(f,
		func(cfg codec.Config) (codec.Encoder, error) { return NewEncoder(cfg) },
		func(hdr container.Header) (codec.Decoder, error) { return NewDecoder(hdr, kernel.SWAR) },
		cfgs)
}
