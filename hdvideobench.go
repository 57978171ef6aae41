// Package hdvideobench is a Go reproduction of HD-VideoBench (Alvarez,
// Salamí, Ramírez, Valero — IISWC 2007): a benchmark for High Definition
// digital video applications.
//
// It provides three complete video codecs built from scratch —
// MPEG-2-class, MPEG-4-ASP-class (Xvid role) and H.264-class (x264 role) —
// together with the paper's four input sequences (procedural equivalents),
// its three HD resolutions, the §IV coding options, and runners that
// regenerate Table V (rate-distortion) and Figure 1(a-d) (decode/encode
// throughput, scalar vs SIMD).
//
// Quick start:
//
//	gen := hdvideobench.NewSequence(hdvideobench.BlueSky, 1280, 720)
//	enc, _ := hdvideobench.NewEncoder(hdvideobench.H264, hdvideobench.EncoderOptions{Width: 1280, Height: 720})
//	for i := 0; i < 25; i++ {
//		pkts, _ := enc.Encode(gen.Frame(i))
//		// write pkts ...
//	}
//
// # GOP-parallel encoding and decoding
//
// The paper's future-work direction — parallel codec versions for chip
// multiprocessors — is built in. With EncoderOptions.IntraPeriod > 0 the
// stream is a series of closed GOPs (no picture references across an I
// frame), and EncodeFramesParallel / DecodePacketsParallel spread those
// GOPs over EncoderOptions.Workers goroutines, each driving a private
// codec instance, with an ordered merge stage reassembling the results:
//
//	frames := hdvideobench.NewSequence(hdvideobench.RushHour, 1280, 720).Generate(48)
//	pkts, hdr, _ := hdvideobench.EncodeFramesParallel(hdvideobench.H264,
//		hdvideobench.EncoderOptions{Width: 1280, Height: 720, IntraPeriod: 6, Workers: 8},
//		frames)
//	decoded, _ := hdvideobench.DecodePacketsParallel(hdr, false, 8, pkts)
//
// The parallel output — bitstream bytes, packet order, display stamps,
// decoded pixels — is byte-identical to the serial path at every worker
// count (a benchmark whose results change with GOMAXPROCS is worthless);
// the equivalence suites of internal/core and internal/stream prove it
// under the race detector. The batch calls are the streaming engine
// (NewStreamEncoder, EncodeStream) run over a slice, so every entry point
// schedules chunks, slices and rows the same way.
// SuiteOptions.Workers threads the same parallelism through the Table V
// and Figure 1 runners.
//
// # Slice-level parallelism
//
// GOP chunks need IntraPeriod > 0, but the paper's default is first-
// frame-only intra — one chunk, no scaling. EncoderOptions.Slices splits
// every frame into N independently coded macroblock-row slices (x264's
// sliced-threads shape): prediction state resets and clamps at slice
// boundaries, the frame packet carries a slice table, and the slices of
// each frame are coded and decoded concurrently on the same Workers
// budget: a chunk worker with no chunk left lends its token to the
// slices (and Wavefront rows) of the frames still in flight, so the two
// axes compose without ever exceeding Workers goroutines. Slices change
// the bitstream (a small, bounded quality cost), but for a fixed slice
// count the output remains byte-identical at every worker count.
//
// See the examples/ directory for complete programs (examples/parallel is
// the parallel API demo) and cmd/hdvbench for the benchmark front end;
// both front ends expose a -workers flag (default runtime.NumCPU(),
// 1 = serial).
package hdvideobench

import (
	"fmt"
	"io"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/core"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/metrics"
	"hdvideobench/internal/obs"
	"hdvideobench/internal/pipeline"
	"hdvideobench/internal/seqgen"
	"hdvideobench/internal/stream"
)

// Codec identifies one of the three benchmark codecs.
type Codec = core.CodecID

// The benchmark codecs, in the paper's table order.
const (
	MPEG2 = core.MPEG2
	MPEG4 = core.MPEG4
	H264  = core.H264
)

// ParseCodec maps names like "mpeg2", "xvid" or "h264" to a Codec.
func ParseCodec(name string) (Codec, error) { return core.ParseCodec(name) }

// Frame is a planar YUV 4:2:0 picture.
type Frame = frame.Frame

// NewFrame allocates a picture. Width and height must be even.
func NewFrame(width, height int) *Frame { return frame.New(width, height) }

// RawFrameSize returns the byte size of one raw I420 frame.
func RawFrameSize(width, height int) int { return frame.RawSize(width, height) }

// DownscaleFrame returns src resized to width×height — a box filter
// when both axes shrink by an integer factor, center-aligned bilinear
// otherwise (the ladder downscaler). Both dimensions must be even and
// no larger than the source; there is no upscaler.
func DownscaleFrame(src *Frame, width, height int) *Frame {
	return frame.DownscaleNew(src, width, height)
}

// PSNR returns the luma peak signal-to-noise ratio between two frames in
// decibels (the paper's Table V quality metric).
func PSNR(ref, dist *Frame) float64 { return metrics.PSNRFrames(ref, dist) }

// Sequence identifies one of the four benchmark input sequences (Table III).
type Sequence = seqgen.Sequence

// The four benchmark sequences, plus the scenario stressors
// (SportPan: fast global camera pan; SceneCut: hard shot alternation
// every seqgen.SceneCutPeriod frames; FilmGrain: temporally
// decorrelated grain over a static scene, the rate-control stressor).
const (
	BlueSky        = seqgen.BlueSky
	PedestrianArea = seqgen.PedestrianArea
	Riverbed       = seqgen.Riverbed
	RushHour       = seqgen.RushHour
	SportPan       = seqgen.SportPan
	SceneCut       = seqgen.SceneCut
	FilmGrain      = seqgen.FilmGrain
)

// Sequences lists the paper's four in table order (the benchmark
// default matrix).
var Sequences = seqgen.All

// AllSequences lists every available sequence: the paper's four plus
// the scenario stressors.
var AllSequences = seqgen.Extended

// ParseSequence maps a sequence name ("blue_sky", ...) to its value.
func ParseSequence(name string) (Sequence, error) { return seqgen.Parse(name) }

// SequenceGenerator deterministically renders the frames of one benchmark
// sequence at one resolution: a frame is a pure function of (sequence,
// resolution, index). A generator reuses row scratch between frames, so
// one generator must not render frames from several goroutines at once.
type SequenceGenerator = seqgen.Generator

// NewSequence returns a generator for the given sequence and resolution.
func NewSequence(s Sequence, width, height int) *SequenceGenerator {
	return seqgen.New(s, width, height)
}

// Resolution is one of the benchmark picture sizes (§IV).
type Resolution = core.Resolution

// Resolutions lists the paper's three sizes: 576p25, 720p25, 1088p25
// (the benchmark default matrix).
var Resolutions = core.Resolutions

// AllResolutions lists every named resolution: the paper's three plus
// 2160p25 (4K UHD).
var AllResolutions = core.AllResolutions

// ResolutionByName resolves a resolution name — canonical ("720p25",
// "2160p25") or alias ("1080p", "4k"; 1080p maps to the 1088-row size,
// heights must be multiples of 16).
func ResolutionByName(name string) (Resolution, error) { return core.ResolutionByName(name) }

// Packet is one coded frame in coding order.
type Packet = container.Packet

// StreamHeader describes a coded stream.
type StreamHeader = container.Header

// Frame types within a Packet.
const (
	FrameI = container.FrameI
	FrameP = container.FrameP
	FrameB = container.FrameB
)

// Encoder consumes display-order frames and produces coded packets.
type Encoder = codec.Encoder

// Decoder consumes coded packets and produces display-order frames.
type Decoder = codec.Decoder

// EntropyMode selects the H.264 entropy coder.
type EntropyMode = codec.EntropyMode

// Entropy coder choices (H.264 only).
const (
	EntropyCABAC = codec.EntropyCABAC
	EntropyVLC   = codec.EntropyVLC
)

// EncoderOptions configures an encoder. Zero fields take the paper's §IV
// defaults (Q=5, two B frames, first-frame-only intra, search range 24,
// four references, CABAC, scalar kernels).
type EncoderOptions = core.EncoderOptions

// NewEncoder constructs an encoder for the given codec.
func NewEncoder(c Codec, opts EncoderOptions) (Encoder, error) {
	cfg, err := core.CodecConfig(opts)
	if err != nil {
		return nil, err
	}
	return core.NewEncoder(c, cfg)
}

// NewDecoder constructs a decoder for a coded stream. simd selects the SWAR
// motion-compensation kernels (the paper's SIMD decoder versions).
func NewDecoder(hdr StreamHeader, simd bool) (Decoder, error) {
	return core.NewDecoder(hdr, core.Kernels(simd))
}

// WriteStream writes a stream header and packets to w in HDVB container
// format.
func WriteStream(w io.Writer, hdr StreamHeader, pkts []Packet) error {
	cw, err := container.NewWriter(w, hdr)
	if err != nil {
		return err
	}
	for _, p := range pkts {
		if err := cw.WritePacket(p); err != nil {
			return err
		}
	}
	return nil
}

// ReadStream reads a complete HDVB stream from r.
func ReadStream(r io.Reader) (StreamHeader, []Packet, error) {
	cr, err := container.NewReader(r)
	if err != nil {
		return StreamHeader{}, nil, err
	}
	var pkts []Packet
	for {
		p, err := cr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return StreamHeader{}, nil, err
		}
		pkts = append(pkts, p)
	}
	return cr.Header(), pkts, nil
}

// EncodeFrames is a convenience that drives enc over frames and flushes.
func EncodeFrames(enc Encoder, frames []*Frame) ([]Packet, error) {
	return pipeline.EncodeChunk(enc, frames, 0)
}

// DecodePackets is a convenience that drives dec over pkts and flushes,
// returning frames in display order.
func DecodePackets(dec Decoder, pkts []Packet) ([]*Frame, error) {
	return pipeline.DecodeSegment(dec, pkts)
}

// EncodeFramesParallel encodes display-order frames on the streaming
// engine — the slice fed in, the packets drained back out — with
// opts.Workers parallel encoder instances, one closed GOP
// (opts.IntraPeriod frames) per task, and returns the packets in coding
// order plus the stream header. The stream is byte-identical to the
// serial path (NewEncoder + EncodeFrames) for every worker count;
// opts.Workers of 0 or 1 run one encoder instance, opts.IntraPeriod == 0
// leaves only slices and wavefront rows to parallelize, and negative
// Workers selects runtime.NumCPU().
func EncodeFramesParallel(c Codec, opts EncoderOptions, frames []*Frame) ([]Packet, StreamHeader, error) {
	cfg, err := core.CodecConfig(opts)
	if err != nil {
		return nil, StreamHeader{}, err
	}
	return core.EncodeSequenceParallel(c, cfg, frames, opts.Workers)
}

// LadderRung is one output rendition of EncodeLadder: a target geometry
// (a named resolution no larger than the mezzanine) plus an optional
// bitrate in kbps (0 = constant-Q at the mezzanine's Q).
type LadderRung = core.LadderRung

// LadderRendition is one finished ladder rung: its coded packets and
// the stream header that decodes them.
type LadderRendition = core.LadderRendition

// ParseLadder parses a rendition-ladder spec like "240p,576p@1200,720p"
// — comma-separated resolution names, each optionally suffixed with
// "@kbps" — and validates it against the mezzanine geometry: known
// names only, no duplicates, no rung larger than the mezzanine.
func ParseLadder(spec string, mezzWidth, mezzHeight int) ([]LadderRung, error) {
	return core.ParseLadder(spec, mezzWidth, mezzHeight)
}

// EncodeLadder encodes one mezzanine sequence into every rung of a
// rendition ladder with shared motion analysis: the largest rung is
// the analysis rung, and its per-frame motion fields, scaled down, seed
// the motion searches of every smaller rung, which therefore early-
// terminate far sooner than a cold search. It is EncodeLadderStream fed
// from a slice, returning each rung's packets. opts describes the
// mezzanine (Width and Height must match frames); each rung inherits
// its coding options, overridden per rung by the rung's geometry and
// Kbps. Every rung's stream is byte-identical at every Workers count and
// Wavefront setting.
func EncodeLadder(c Codec, opts EncoderOptions, frames []*Frame, rungs []LadderRung) ([]LadderRendition, error) {
	cfg, err := core.CodecConfig(opts)
	if err != nil {
		return nil, err
	}
	return core.EncodeLadder(c, cfg, frames, rungs, opts.Workers)
}

// EncodeLadderStream is the streaming EncodeLadder: it pulls each
// mezzanine frame from next once, until io.EOF, and writes rungs[i] as
// an HDVB container to ws[i] while every rung codes in lockstep, at
// memory bounded by opts.Window and the GOP shape rather than by the
// sequence length. frames declares the length in every header as in
// EncodeStream. The first failure — next, a codec or any writer — stops
// every rung and is returned with each rung's stats so far.
func EncodeLadderStream(ws []io.Writer, c Codec, opts EncoderOptions, rungs []LadderRung, frames int, next func() (*Frame, error)) ([]StreamStats, error) {
	cfg, err := core.CodecConfig(opts)
	if err != nil {
		return nil, err
	}
	return core.EncodeLadderStream(ws, c, cfg, rungs, opts.Workers, opts.Window, frames, next, opts.Collector)
}

// DecodePacketsParallel decodes a coding-order packet stream on the
// streaming engine with workers parallel decoder instances, one closed
// GOP per task, returning frames in display order — identical to the
// serial path for every worker count. A packet that displays before its
// GOP's I frame (an open GOP) is an error. simd selects the SWAR kernels
// as in NewDecoder.
func DecodePacketsParallel(hdr StreamHeader, simd bool, workers int, pkts []Packet) ([]*Frame, error) {
	return core.DecodePacketsParallel(hdr, core.Kernels(simd), pkts, workers)
}

// --- streaming ---------------------------------------------------------------

// StreamEncoder is the bounded-memory streaming encoder: Write accepts
// display-order frames, ReadPacket emits coded packets, and at most
// Window closed-GOP chunks are in flight, so peak memory is independent
// of sequence length. One goroutine writes (then calls Close exactly
// once); another reads until io.EOF. See internal/stream for the full
// scheduling model.
type StreamEncoder = stream.Encoder

// ErrStreamAborted is the cause StreamEncoder.Abort tears a stream down
// with: the stream's calls return it afterwards. A stream torn down by a
// failure instead returns that failure, and the one-call entry points
// (EncodeStream, Transcode, ...) return their first failure, never
// ErrStreamAborted.
var ErrStreamAborted = stream.ErrAborted

// Collector is the encode pipeline's observability hook (see
// EncoderOptions.Collector). Its fields are metric cells owned by a
// registry in the serving tier; a nil *Collector disables collection
// everywhere it is threaded.
type Collector = obs.Collector

// StreamStats summarizes one streaming pass.
type StreamStats = core.StreamStats

// TranscodeStats summarizes one streaming transcode.
type TranscodeStats = core.TranscodeStats

// NewStreamEncoder builds a streaming encoder for the given codec. The
// chunk length is opts.IntraPeriod, the parallelism opts.Workers, the
// window opts.Window; opts.Workers <= 1 or opts.IntraPeriod == 0 runs
// the serial constant-memory mode. The packet stream is byte-identical
// to the serial path for every worker count and window.
func NewStreamEncoder(c Codec, opts EncoderOptions) (*StreamEncoder, error) {
	cfg, err := core.CodecConfig(opts)
	if err != nil {
		return nil, err
	}
	return core.NewStreamEncoder(c, cfg, opts.Workers, opts.Window, opts.Collector)
}

// EncodeStream pulls frames from next until it returns io.EOF, encodes
// them as c, and writes the HDVB container to w incrementally — the
// constant-memory counterpart of EncodeFramesParallel + WriteStream.
// When w exposes an http.ResponseWriter-style Flush, every packet is
// flushed onto the wire as it is coded. frames declares the sequence
// length in the container header when known upfront (readers can then
// detect truncated transfers); 0 means unknown, read until EOF. The
// returned stats carry the GOP index of the written bytes (GOPs).
func EncodeStream(w io.Writer, c Codec, opts EncoderOptions, frames int, next func() (*Frame, error)) (StreamStats, error) {
	cfg, err := core.CodecConfig(opts)
	if err != nil {
		return StreamStats{}, err
	}
	return core.EncodeStream(w, c, cfg, opts.Workers, opts.Window, frames, next, opts.Collector)
}

// GOPIndex locates every closed GOP of a coded stream by byte offset —
// the seek table behind cmd/hdvserve's HTTP Range support: any entry's
// Offset is a safe point to start reading packets from, because closed
// GOPs never reference across their boundary.
type GOPIndex = container.GOPIndex

// GOPIndexEntry is one GOPIndex row: the byte offset of a GOP's first
// packet header and the display index of its first (I) frame.
type GOPIndexEntry = container.GOPIndexEntry

// DecodeStream reads an HDVB container from r incrementally, decodes it,
// and hands each display-order frame to yield — the constant-memory
// counterpart of ReadStream + DecodePacketsParallel. An error from yield
// aborts the stream and is returned.
func DecodeStream(r io.Reader, simd bool, workers, window int, yield func(*Frame) error) (StreamHeader, StreamStats, error) {
	return core.DecodeStream(r, core.Kernels(simd), workers, window, yield)
}

// Transcode decodes the HDVB stream on r and re-encodes it as c, writing
// the new container to w. All stages run concurrently under the same
// bounded window, so arbitrarily long streams transcode at constant
// memory. opts supplies the target coding options; zero Width/Height
// copy the input's dimensions (there is no scaler — explicit dimensions
// must match the input), and opts.SIMD selects the kernels for both the
// decode and encode stages, which share the one opts.Workers budget; at
// Workers <= 1 they take turns on one token.
func Transcode(r io.Reader, w io.Writer, c Codec, opts EncoderOptions) (TranscodeStats, error) {
	return core.Transcode(r, w, c, opts)
}

// RawFrameReader iterates a raw planar I420 stream frame by frame (the
// input side of cmd/vcodec and cmd/psnr): Next allocates each frame,
// ReadInto reuses one.
type RawFrameReader = frame.RawReader

// NewRawFrameReader returns a frame-by-frame reader over raw I420 data.
func NewRawFrameReader(r io.Reader, width, height int) *RawFrameReader {
	return frame.NewRawReader(r, width, height)
}

// --- benchmark suite ---------------------------------------------------------

// SuiteOptions configures a benchmark run. Zero fields take the paper
// defaults: the full codec/sequence/resolution matrix, Q=5, 25 frames.
type SuiteOptions = core.SuiteOptions

// RDResult is one Table V row group.
type RDResult = core.RDResult

// SpeedResult is one Figure 1 bar.
type SpeedResult = core.SpeedResult

// RunTableV measures rate-distortion for the configured matrix.
func RunTableV(o SuiteOptions) ([]RDResult, error) { return core.RunRD(o) }

// RunFigure1 measures throughput: encode=false gives panels (a)/(b)
// depending on o.SIMD, encode=true gives panels (c)/(d).
func RunFigure1(o SuiteOptions, encode bool) ([]SpeedResult, error) {
	dir := core.Decode
	if encode {
		dir = core.Encode
	}
	return core.RunSpeed(o, dir)
}

// FormatTableV renders RD results in the paper's Table V layout.
func FormatTableV(rs []RDResult) string { return core.FormatTableV(rs) }

// FormatFigure1 renders speed results as one Figure 1 panel.
func FormatFigure1(rs []SpeedResult, title string) string { return core.FormatFigure1(rs, title) }

// Describe summarizes the benchmark composition (Tables I-IV).
func Describe() string { return core.Describe() }

// FormatSpeedupReport joins a scalar and a SIMD speed run into the §VI
// SIMD speed-up summary.
func FormatSpeedupReport(scalar, simd []SpeedResult) string {
	return core.FormatSpeedups(core.Speedups(scalar, simd))
}

// Gains summarizes compression gains versus MPEG-2 (§VI narrative).
func Gains(rs []RDResult) string { return core.FormatGains(core.CompressionGains(rs)) }

// ValidateResolution checks that a custom size is usable (multiple of 16).
func ValidateResolution(width, height int) error {
	if width <= 0 || height <= 0 || width%16 != 0 || height%16 != 0 {
		return fmt.Errorf("hdvideobench: dimensions must be positive multiples of 16, got %dx%d", width, height)
	}
	return nil
}
