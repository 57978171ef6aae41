package core

import (
	"hdvideobench/internal/codec"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/obs"
	"hdvideobench/internal/seqgen"
)

// EncoderOptions configures an encoder. Zero fields take the paper's §IV
// defaults (Q=5, two B frames, first-frame-only intra, search range 24,
// four references, CABAC, scalar kernels).
type EncoderOptions struct {
	Width, Height int
	// Q is the quantizer in MPEG scale 1..31; H.264 maps it via Eq. 1.
	Q int
	// Kbps, when > 0, switches the encoder from constant-Q to
	// rate-targeted coding: a per-frame quantizer controller steers the
	// stream toward this average bitrate (at the configured frame rate),
	// and with Slices > 1 each slice additionally carries its own
	// quantizer, rebalanced from the previous frame's per-slice spend.
	// Q then only seeds the controller. 0 (the default) keeps exact
	// constant-Q streams.
	Kbps int
	// BFrames is the number of consecutive B pictures (paper: 2).
	// Set to -1 for no B frames.
	BFrames int
	// IntraPeriod inserts an I frame every N frames; 0 = first frame only.
	IntraPeriod int
	// SearchRange is the full-pel motion search range.
	SearchRange int
	// Refs is the H.264 reference-frame count.
	Refs int
	// SIMD selects the SWAR kernel set (the paper's SIMD codec versions).
	SIMD bool
	// Entropy selects the H.264 entropy coder.
	Entropy codec.EntropyMode
	// Workers is the worker budget of one encode, decode or transcode
	// call, shared by all three axes of parallelism — closed-GOP chunks
	// (IntraPeriod frames each), the Slices of a frame and the Wavefront
	// rows of a slice — under one rule: a goroutine holds one of the
	// Workers tokens while it is inside a codec call, and idle tokens go
	// to whoever dispatches next. A chunk worker holds one for the length
	// of its chunk; when it has no chunk (the tail of a stream, a single
	// GOP) its token funds the slices and rows of the frames still being
	// coded, so the call never runs more than Workers codec goroutines
	// and never leaves one idle while a frame could use it. 0 or 1 is
	// the serial path, negative selects runtime.NumCPU(). Output is
	// byte-identical for every value.
	Workers int
	// Slices splits every frame into this many independently coded
	// macroblock-row slices (x264's sliced-threads shape; 0/1 = one
	// slice). Unlike Workers, Slices affects the bitstream: prediction
	// clamps at slice boundaries, costing a little compression. In
	// exchange the slices of one frame are coded concurrently on
	// whatever Workers tokens are free when the frame is dispatched —
	// all but one at the paper's IntraPeriod == 0 default, the idle
	// chunk workers' otherwise — and for a fixed slice count output
	// stays byte-identical at every worker count.
	Slices int
	// Wavefront enables wavefront (2D) macroblock scheduling inside each
	// slice: macroblock rows run concurrently as soon as their left and
	// top-right dependencies are met, each extra row helper on a free
	// Workers token like a slice. Unlike Slices it never changes the
	// bitstream — output stays byte-identical with the flag on or off,
	// at every worker count — so it is the axis that scales a
	// single-slice, IntraPeriod == 0 stream without any compression cost.
	Wavefront bool
	// SceneCutIntra enables adaptive I-frame placement: a subsampled-luma
	// SAD spike between consecutive input frames restarts the GOP with an
	// I frame at the cut instead of waiting for the next IntraPeriod
	// boundary. Opt-in because it moves frame types (the bitstream
	// changes); off, streams are exactly the fixed-GOP ones.
	SceneCutIntra bool
	// Window caps the closed-GOP chunks in flight on the streaming paths
	// (NewStreamEncoder, EncodeStream, EncodeLadderStream — per rung —
	// and Transcode): peak memory is O(Window × IntraPeriod) frames
	// regardless of sequence length. 0 selects 2×Workers. The batch
	// entry points (EncodeFramesParallel, EncodeLadder) hold the whole
	// sequence by definition and always run the engine at that default.
	Window int
	// Collector, when non-nil, receives the encode pipeline's
	// self-measurements on the streaming paths: per-chunk encode wall
	// time, pool queue depth, ordered-drain stalls, and slice-gate
	// spawn/wait accounting. The serving tier wires one backed by its
	// metrics registry; nil (the default) disables collection with zero
	// per-frame overhead.
	Collector *obs.Collector
}

// CodecConfig maps public options onto the codec configuration and
// validates the result: the one translation every entry point taking
// EncoderOptions goes through.
func CodecConfig(o EncoderOptions) (codec.Config, error) {
	cfg := codec.Default(o.Width, o.Height)
	if o.Q != 0 {
		cfg.Q = o.Q
	}
	switch {
	case o.BFrames < 0:
		cfg.BFrames = 0
	case o.BFrames > 0:
		cfg.BFrames = o.BFrames
	}
	cfg.TargetKbps = o.Kbps
	cfg.IntraPeriod = o.IntraPeriod
	if o.SearchRange != 0 {
		cfg.SearchRange = o.SearchRange
	}
	if o.Refs != 0 {
		cfg.Refs = o.Refs
	}
	cfg.Kernels = Kernels(o.SIMD)
	cfg.Entropy = o.Entropy
	cfg.Slices = o.Slices
	cfg.Wavefront = o.Wavefront
	cfg.SceneCutIntra = o.SceneCutIntra
	if err := cfg.Validate(); err != nil {
		return codec.Config{}, err
	}
	return cfg, nil
}

// Kernels selects the kernel set: SWAR for the paper's SIMD codec
// versions, scalar otherwise.
func Kernels(simd bool) kernel.Set {
	if simd {
		return kernel.SWAR
	}
	return kernel.Scalar
}

// SuiteOptions configures a benchmark run. Zero fields take the paper
// defaults: the full codec/sequence/resolution matrix, Q=5, 25 frames.
type SuiteOptions struct {
	Frames      int
	Q           int
	SIMD        bool
	Resolutions []Resolution
	Sequences   []seqgen.Sequence
	Codecs      []CodecID
	// IntraPeriod inserts an I frame every N frames (0 = first frame
	// only, the paper's setting). Nonzero periods produce closed GOPs,
	// the unit of Workers parallelism.
	IntraPeriod int
	// Workers is the worker budget of the suite's encode and decode
	// passes (0/1 = serial; see EncoderOptions.Workers for how chunks,
	// slices and wavefront rows share it). Results are byte-identical
	// across worker counts.
	Workers int
	// Slices is the per-frame macroblock-row slice count (0/1 = one
	// slice). Slices parallelize inside each frame — the axis that
	// scales the paper's IntraPeriod == 0 default — at a small,
	// documented prediction-efficiency cost.
	Slices int
	// Wavefront enables wavefront (2D) macroblock scheduling inside each
	// slice for the suite's encode passes — frame-internal parallelism
	// with no bitstream change (see EncoderOptions.Wavefront).
	Wavefront bool
	// Repeats is the number of timing repetitions for speed runs (the
	// fastest is kept); the paper used five runs of each application.
	Repeats int
}

func (o SuiteOptions) defaults() SuiteOptions {
	if o.Frames == 0 {
		o.Frames = 25
	}
	if o.Q == 0 {
		o.Q = 5
	}
	if o.Resolutions == nil {
		o.Resolutions = Resolutions
	}
	if o.Sequences == nil {
		o.Sequences = seqgen.All
	}
	if o.Codecs == nil {
		o.Codecs = AllCodecs
	}
	return o
}

// config builds the codec configuration of one resolution under o,
// through the same translation as the public entry points.
func (o SuiteOptions) config(res Resolution) (codec.Config, error) {
	return CodecConfig(EncoderOptions{
		Width: res.Width, Height: res.Height, Q: o.Q, SIMD: o.SIMD,
		IntraPeriod: o.IntraPeriod, Slices: o.Slices, Wavefront: o.Wavefront,
	})
}
