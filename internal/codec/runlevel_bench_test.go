package codec_test

import (
	"testing"

	"hdvideobench/internal/bitstream"
	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/mpeg"
	"hdvideobench/internal/seqgen"
)

// riverbedISlice returns the one slice of a riverbed 720p MPEG-2 I frame
// at the paper's quantizer, and its block count. An intra slice is nothing
// but blocks — se(dc), then run/level pairs up to the marker — so the two
// benchmarks below can walk it without a decoder around them.
func riverbedISlice(b testing.TB) (slice []byte, blocks int) {
	cfg := codec.Default(1280, 720)
	cfg.Kernels = kernel.SWAR
	enc, err := mpeg.NewEncoder(cfg, container.CodecMPEG2)
	if err != nil {
		b.Fatal(err)
	}
	pkts, err := enc.Encode(seqgen.New(seqgen.Riverbed, cfg.Width, cfg.Height).Frame(0))
	if err != nil || len(pkts) != 1 {
		b.Fatalf("%d packets: %v", len(pkts), err)
	}
	spans, off, err := codec.ParseSliceTable(pkts[0].Payload[1:], cfg.MBRows())
	if err != nil || len(spans) != 1 {
		b.Fatalf("%d slices: %v", len(spans), err)
	}
	return pkts[0].Payload[1+off:], cfg.MBRows() * cfg.MBCols() * 6
}

// BenchmarkReadRunLevels parses every block of the slice; a symbol is one
// (run, level) pair or one end-of-block marker.
func BenchmarkReadRunLevels(b *testing.B) {
	slice, blocks := riverbedISlice(b)
	var br bitstream.Reader
	symbols := 0
	b.SetBytes(int64(len(slice)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(slice)
		symbols = 0
		for k := 0; k < blocks; k++ {
			var blk [64]int32
			br.ReadSE()
			if err := codec.ReadRunLevels(&br, &blk, 1, 63); err != nil {
				b.Fatal(err)
			}
			for _, v := range blk {
				if v != 0 {
					symbols++
				}
			}
			symbols++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*symbols), "ns/symbol")
}

// BenchmarkReadUE reads the same slice as a flat sequence of Exp-Golomb
// codes: ue and se share their code lengths, so the reads fall on the
// slice's real symbol boundaries and see its real length distribution.
func BenchmarkReadUE(b *testing.B) {
	slice, _ := riverbedISlice(b)
	var br bitstream.Reader
	symbols, sink := 0, uint32(0)
	b.SetBytes(int64(len(slice)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(slice)
		symbols = 0
		for br.BitsRemaining() >= 64 {
			sink += br.ReadUE()
			symbols++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*symbols), "ns/symbol")
	if sink == 1 {
		b.Log(sink)
	}
}
