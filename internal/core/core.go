// Package core implements the HD-VideoBench suite itself — the paper's
// primary contribution: the codec/sequence/resolution benchmark matrix, the
// §IV coding-option presets, the rate-distortion runner behind Table V, the
// fps runners behind Figure 1(a-d), and the report formatting that
// regenerates the paper's tables.
package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/h264"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/metrics"
	"hdvideobench/internal/mpeg"
	"hdvideobench/internal/pipeline"
	"hdvideobench/internal/seqgen"
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
		return mpeg.NewEncoder(cfg, container.CodecMPEG2)
	case MPEG4:
		return mpeg.NewEncoder(cfg, container.CodecMPEG4)
	case H264:
		return h264.NewEncoder(cfg)
	}
	return nil, fmt.Errorf("core: unknown codec %d", id)
}

// NewDecoder constructs the decoder for a coded stream header.
func NewDecoder(hdr container.Header, kern kernel.Set) (codec.Decoder, error) {
	switch hdr.Codec {
	case container.CodecMPEG2, container.CodecMPEG4:
		return mpeg.NewDecoder(hdr, kern)
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
// budget of workers goroutines: it is EncodeLadder with one rung, the
// sequence's own geometry and bitrate. The packet stream is
// byte-identical to EncodeSequence for every worker count; GOP-chunk
// parallelism requires cfg.IntraPeriod > 0 (closed GOPs are the unit of
// work), slices and wavefront rows do not. workers <= 1 is the
// single-instance mode, workers < 0 selects runtime.NumCPU(). On return
// every input frame carries its display index as PTS.
func EncodeSequenceParallel(id CodecID, cfg codec.Config, frames []*frame.Frame, workers int) ([]container.Packet, container.Header, error) {
	out, err := EncodeLadder(id, cfg, frames, []LadderRung{{Width: cfg.Width, Height: cfg.Height, Kbps: cfg.TargetKbps}}, workers)
	if err != nil {
		return nil, container.Header{}, err
	}
	return out[0].Packets, out[0].Header, nil
}

// DecodePacketsParallel decodes a coding-order packet stream on the
// streaming engine, one closed GOP per task, with a budget of workers
// goroutines. Decoded frames are identical to DecodePackets for every
// worker count; a stream whose GOPs are not closed is an error.
func DecodePacketsParallel(hdr container.Header, kern kernel.Set, pkts []container.Packet, workers int) ([]*frame.Frame, error) {
	out := make([]*frame.Frame, 0, len(pkts))
	err := decode(decoderFactory(hdr, kern), workerGate(workers, nil), 0, sliceNext(pkts), func(f *frame.Frame) error {
		out = append(out, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
	FPS        float64
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
				FPS:        float64(frames[ci]) / slices.Min(times[ci]).Seconds(),
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
