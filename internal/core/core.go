// Package core implements the HD-VideoBench suite itself — the paper's
// primary contribution: the codec/sequence/resolution benchmark matrix, the
// §IV coding-option presets, the rate-distortion runner behind Table V, the
// fps runners behind Figure 1(a-d), and the report formatting that
// regenerates the paper's tables.
package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/h264"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/metrics"
	"hdvideobench/internal/mpeg2"
	"hdvideobench/internal/mpeg4"
	"hdvideobench/internal/pipeline"
	"hdvideobench/internal/seqgen"
	"hdvideobench/internal/stream"
)

// CodecID identifies one of the three benchmark codecs.
type CodecID int

const (
	MPEG2 CodecID = iota
	MPEG4
	H264
)

// AllCodecs lists the codecs in the paper's table order.
var AllCodecs = []CodecID{MPEG2, MPEG4, H264}

// String returns the codec name as printed in the paper's tables.
func (c CodecID) String() string {
	switch c {
	case MPEG2:
		return "MPEG-2"
	case MPEG4:
		return "MPEG-4"
	case H264:
		return "H.264"
	}
	return fmt.Sprintf("CodecID(%d)", int(c))
}

// ParseCodec maps a codec name to its ID.
func ParseCodec(name string) (CodecID, error) {
	switch strings.ToLower(strings.ReplaceAll(name, "-", "")) {
	case "mpeg2":
		return MPEG2, nil
	case "mpeg4", "xvid":
		return MPEG4, nil
	case "h264", "h.264", "x264", "avc":
		return H264, nil
	}
	return 0, fmt.Errorf("core: unknown codec %q", name)
}

// Resolution is one of the benchmark picture sizes.
type Resolution struct {
	Name          string
	Width, Height int
}

// Resolutions are the paper's three sizes: DVD, HD-720 and HD-1088
// (1088 rather than 1080 so the height is a multiple of 16 — §IV).
var Resolutions = []Resolution{
	{"576p25", 720, 576},
	{"720p25", 1280, 720},
	{"1088p25", 1920, 1088},
}

// UHD2160 extends the paper's set one HD generation up: 4K UHD, the
// "as HD as it gets now" scenario point. 2160 is already a multiple of
// 16, so no 1088-style rounding is needed.
var UHD2160 = Resolution{"2160p25", 3840, 2160}

// LD240 extends the set one generation down: the low-bandwidth ladder
// rung (416×240 — both multiples of 16, 240p's usual 426 width rounded
// to the macroblock grid).
var LD240 = Resolution{"240p25", 416, 240}

// AllResolutions is every named resolution a front end accepts: the
// paper's three plus UHD2160 and LD240. Benchmark defaults stay on
// Resolutions — the Table V / Figure 1 matrix is the paper's.
var AllResolutions = append(append([]Resolution{}, Resolutions...), UHD2160, LD240)

// resolutionAliases maps common spellings onto canonical names. 1080p
// resolves to the 1088-row size for the same §IV multiple-of-16 reason
// the paper's tables do.
var resolutionAliases = map[string]string{
	"240p": "240p25", "ld": "240p25",
	"576p": "576p25", "sd": "576p25", "dvd": "576p25",
	"720p": "720p25", "hd": "720p25",
	"1080p": "1088p25", "1080p25": "1088p25", "1088p": "1088p25", "fullhd": "1088p25",
	"2160p": "2160p25", "4k": "2160p25", "uhd": "2160p25",
}

// ResolutionByName finds a named resolution, accepting the canonical
// names ("576p25" ... "2160p25") and common aliases ("1080p", "4k").
func ResolutionByName(name string) (Resolution, error) {
	canon := name
	if alias, ok := resolutionAliases[strings.ToLower(name)]; ok {
		canon = alias
	}
	for _, r := range AllResolutions {
		if strings.EqualFold(r.Name, canon) {
			return r, nil
		}
	}
	return Resolution{}, fmt.Errorf("core: unknown resolution %q", name)
}

// NewEncoder constructs the encoder for a codec ID.
func NewEncoder(id CodecID, cfg codec.Config) (codec.Encoder, error) {
	switch id {
	case MPEG2:
		return mpeg2.NewEncoder(cfg)
	case MPEG4:
		return mpeg4.NewEncoder(cfg)
	case H264:
		return h264.NewEncoder(cfg)
	}
	return nil, fmt.Errorf("core: unknown codec %d", id)
}

// NewDecoder constructs the decoder for a coded stream header.
func NewDecoder(hdr container.Header, kern kernel.Set) (codec.Decoder, error) {
	switch hdr.Codec {
	case container.CodecMPEG2:
		return mpeg2.NewDecoder(hdr, kern)
	case container.CodecMPEG4:
		return mpeg4.NewDecoder(hdr, kern)
	case container.CodecH264:
		return h264.NewDecoder(hdr, kern)
	}
	return nil, fmt.Errorf("core: unknown stream codec %v", hdr.Codec)
}

// EncodeSequence is the single-instance reference the scheduler tests
// compare against: one encoder over the whole sequence, packets in
// coding order.
func EncodeSequence(id CodecID, cfg codec.Config, frames []*frame.Frame) ([]container.Packet, container.Header, error) {
	enc, err := NewEncoder(id, cfg)
	if err != nil {
		return nil, container.Header{}, err
	}
	pkts, err := pipeline.EncodeChunk(enc, frames, 0)
	return pkts, enc.Header(), err
}

// DecodePackets is the decode twin of EncodeSequence: one decoder over
// the whole packet stream, frames in display order.
func DecodePackets(hdr container.Header, kern kernel.Set, pkts []container.Packet) ([]*frame.Frame, error) {
	dec, err := NewDecoder(hdr, kern)
	if err != nil {
		return nil, err
	}
	return pipeline.DecodeSegment(dec, pkts)
}

// EncodeSequenceParallel encodes frames on the streaming engine with a
// budget of workers goroutines — the slice is fed in and the packets,
// in coding order, drained back out. The packet stream is byte-identical
// to EncodeSequence for every worker count; GOP-chunk parallelism
// requires cfg.IntraPeriod > 0 (closed GOPs are the unit of work),
// slices and wavefront rows do not. workers <= 1 is the single-instance
// mode, workers < 0 selects runtime.NumCPU(). On return every input
// frame carries its display index as PTS.
func EncodeSequenceParallel(id CodecID, cfg codec.Config, frames []*frame.Frame, workers int) ([]container.Packet, container.Header, error) {
	return encodeFrames(encoderFactory(id, cfg), cfg.IntraPeriod, frames, workers)
}

// encodeFrames is EncodeSequenceParallel from the point where the codec
// is chosen.
func encodeFrames(newEnc pipeline.EncoderFactory, gop int, frames []*frame.Frame, workers int) ([]container.Packet, container.Header, error) {
	enc, err := stream.NewEncoder(newEnc, gop, workerGate(workers, nil), 0)
	if err != nil {
		return nil, container.Header{}, err
	}
	pkts, err := overSlice(frames, enc.Write, enc.Close, enc.Abort, enc.ReadPacket)
	if err != nil {
		return nil, container.Header{}, err
	}
	// Chunk encoders stamp chunk-local arrival indices on their frames.
	for i, f := range frames {
		f.PTS = i
	}
	return pkts, enc.Header(), nil
}

// DecodePacketsParallel decodes a coding-order packet stream on the
// streaming engine, one closed GOP per task, with a budget of workers
// goroutines. Decoded frames are identical to DecodePackets for every
// worker count; a stream whose GOPs are not closed is an error.
func DecodePacketsParallel(hdr container.Header, kern kernel.Set, pkts []container.Packet, workers int) ([]*frame.Frame, error) {
	return decodePackets(decoderFactory(hdr, kern), pkts, workers)
}

// decodePackets is DecodePacketsParallel from the point where the codec
// is chosen.
func decodePackets(newDec pipeline.DecoderFactory, pkts []container.Packet, workers int) ([]*frame.Frame, error) {
	dec, err := stream.NewDecoder(newDec, workerGate(workers, nil), 0)
	if err != nil {
		return nil, err
	}
	return overSlice(pkts, dec.Write, dec.Close, dec.Abort, dec.ReadFrame)
}

// RDResult is one Table V cell group: quality and rate for a codec on a
// sequence at a resolution.
type RDResult struct {
	Resolution Resolution
	Sequence   seqgen.Sequence
	Codec      CodecID
	PSNR       float64
	Kbps       float64
	Frames     int
	Bits       int64
}

// RunRD measures rate-distortion for the full matrix in o (Table V).
func RunRD(o SuiteOptions) ([]RDResult, error) {
	o = o.defaults()
	var results []RDResult
	for _, res := range o.Resolutions {
		cfg, err := o.config(res)
		if err != nil {
			return nil, err
		}
		for _, seq := range o.Sequences {
			inputs := seqgen.New(seq, res.Width, res.Height).Generate(o.Frames)
			for _, id := range o.Codecs {
				pkts, hdr, err := EncodeSequenceParallel(id, cfg, inputs, o.Workers)
				if err != nil {
					return nil, fmt.Errorf("encoding %v/%v/%v: %w", res.Name, seq, id, err)
				}
				decoded, err := DecodePacketsParallel(hdr, cfg.Kernels, pkts, o.Workers)
				if err != nil {
					return nil, fmt.Errorf("decoding %v/%v/%v: %w", res.Name, seq, id, err)
				}
				if len(decoded) != len(inputs) {
					return nil, fmt.Errorf("%v/%v/%v: decoded %d of %d frames",
						res.Name, seq, id, len(decoded), len(inputs))
				}
				var acc metrics.Accumulator
				for i := range inputs {
					bits := 0
					if i < len(pkts) {
						bits = 8 * len(pkts[i].Payload)
					}
					acc.AddFrame(inputs[i], decoded[i], bits)
				}
				results = append(results, RDResult{
					Resolution: res,
					Sequence:   seq,
					Codec:      id,
					PSNR:       acc.PSNR(),
					Kbps:       acc.BitrateKbps(cfg.FPS()),
					Frames:     len(inputs),
					Bits:       acc.TotalBits(),
				})
			}
		}
	}
	return results, nil
}

// Direction selects encode or decode for speed runs.
type Direction int

const (
	Decode Direction = iota
	Encode
)

func (d Direction) String() string {
	if d == Encode {
		return "Encoding"
	}
	return "Decoding"
}

// SpeedResult is one Figure 1 bar: frames per second for a codec at a
// resolution (averaged over the benchmark sequences).
type SpeedResult struct {
	Resolution Resolution
	Codec      CodecID
	Direction  Direction
	Kernels    kernel.Set
	Workers    int  // worker budget, resolved (1 = serial path)
	Slices     int  // macroblock-row slices per frame (0/1 = one slice)
	Wavefront  bool // wavefront (2D) macroblock scheduling inside slices
	GOP        int  // effective intra period (0 = first frame only)
	FPS        float64
	Frames     int
}

// RunSpeed measures encode or decode throughput for the matrix in o
// (Figure 1: a = decode scalar, b = decode SIMD, c = encode scalar,
// d = encode SIMD, depending on o.SIMD and dir).
func RunSpeed(o SuiteOptions, dir Direction) ([]SpeedResult, error) {
	o = o.defaults()
	var results []SpeedResult
	repeats := o.Repeats
	if repeats < 1 {
		repeats = 1
	}
	for _, res := range o.Resolutions {
		cfg, err := o.config(res)
		if err != nil {
			return nil, err
		}
		// Each clip is generated once and timed by every codec and repeat
		// before the next one exists, so one clip is resident at a time.
		// times[c][rep] is codec c's time over all sequences in repeat rep.
		times := make([][]time.Duration, len(o.Codecs))
		frames := make([]int, len(o.Codecs))
		for ci := range times {
			times[ci] = make([]time.Duration, repeats)
		}
		for _, seq := range o.Sequences {
			inputs := seqgen.New(seq, res.Width, res.Height).Generate(o.Frames)
			for ci, id := range o.Codecs {
				for rep := 0; rep < repeats; rep++ {
					n, elapsed, err := timeClip(o, dir, id, cfg, inputs)
					if err != nil {
						return nil, err
					}
					times[ci][rep] += elapsed
					if rep == 0 {
						frames[ci] += n
					}
				}
			}
		}
		for ci, id := range o.Codecs {
			results = append(results, SpeedResult{
				Resolution: res,
				Codec:      id,
				Direction:  dir,
				Kernels:    cfg.Kernels,
				Workers:    resolveWorkers(o.Workers),
				Slices:     max(o.Slices, 1),
				Wavefront:  o.Wavefront,
				GOP:        o.IntraPeriod,
				FPS:        float64(frames[ci]) / slices.Min(times[ci]).Seconds(),
				Frames:     frames[ci],
			})
		}
	}
	return results, nil
}

// timeClip times one encode of inputs, or one decode of their encoding,
// and returns the frames it processed.
func timeClip(o SuiteOptions, dir Direction, id CodecID, cfg codec.Config, inputs []*frame.Frame) (int, time.Duration, error) {
	if dir == Encode {
		start := time.Now()
		_, _, err := EncodeSequenceParallel(id, cfg, inputs, o.Workers)
		return len(inputs), time.Since(start), err
	}
	pkts, hdr, err := EncodeSequenceParallel(id, cfg, inputs, o.Workers)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	decoded, err := DecodePacketsParallel(hdr, cfg.Kernels, pkts, o.Workers)
	return len(decoded), time.Since(start), err
}

// ScalingGOP is the intra period RunScaling pins when the caller has not
// chosen one: parallel throughput needs closed GOPs to chunk on, and
// every worker count must code the same stream for the comparison to
// mean anything. Six frames is two full I-P-B-B groups' worth of work
// per chunk at the paper's BFrames=2.
const ScalingGOP = 6

// RunScaling measures encode or decode throughput at each worker count —
// Figure 1's new scaling dimension (frames/s at 1, 2, 4, N workers).
// All counts run with identical coding options (same IntraPeriod and
// Slices, so identical bitstreams); only the goroutine count varies.
// workerCounts nil defaults to {1, 2, 4, runtime.NumCPU()}; counts that
// resolve to the same budget are measured once. When neither IntraPeriod nor Slices provides a
// parallel axis, IntraPeriod is pinned to ScalingGOP so chunks exist.
func RunScaling(o SuiteOptions, dir Direction, workerCounts []int) ([]SpeedResult, error) {
	if o.IntraPeriod == 0 && o.Slices <= 1 {
		o.IntraPeriod = ScalingGOP
	}
	return RunScalingMatrix(o, dir, workerCounts, nil)
}

// RunScalingMatrix sweeps the full slices × workers grid: for every
// slice count the same bitstream is coded at every worker count, so the
// matrix shows both the intra-frame scaling (slices at the paper's
// IntraPeriod == 0 default) and the prediction-efficiency price of
// slicing. sliceCounts nil measures only o.Slices; workerCounts nil
// defaults to {1, 2, 4, runtime.NumCPU()}. Worker counts are resolved
// as every call resolves them (0 is 1, negative is runtime.NumCPU()),
// and counts that resolve alike are measured once.
func RunScalingMatrix(o SuiteOptions, dir Direction, workerCounts, sliceCounts []int) ([]SpeedResult, error) {
	o = o.defaults()
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, runtime.NumCPU()}
	}
	budgets := make([]int, len(workerCounts))
	for i, wc := range workerCounts {
		budgets[i] = resolveWorkers(wc)
	}
	if len(sliceCounts) == 0 {
		sliceCounts = []int{max(o.Slices, 1)}
	}
	dedup := func(in []int) []int {
		out := make([]int, 0, len(in))
		seen := map[int]bool{}
		for _, v := range in {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		sort.Ints(out)
		return out
	}
	var results []SpeedResult
	for _, sc := range dedup(sliceCounts) {
		for _, wc := range dedup(budgets) {
			ow := o
			ow.Slices = sc
			ow.Workers = wc
			rs, err := RunSpeed(ow, dir)
			if err != nil {
				return nil, fmt.Errorf("scaling at %d slices, %d workers: %w", sc, wc, err)
			}
			results = append(results, rs...)
		}
	}
	return results, nil
}
