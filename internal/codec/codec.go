// Package codec is everything the three HD-VideoBench codecs share: the
// coding options of the paper's §IV (Config) and one frame driver pair,
// FrameEncoder and FrameDecoder, behind the Encoder/Decoder interfaces
// the benchmark harness drives. A codec package supplies only a slice
// coder (SliceEncoder, SliceDecoder) — what makes it that codec.
//
// The drivers own everything outside a slice: the dimension check and
// display stamp, IPBB GOP typing and reordering (GOPScheduler,
// DisplayReorderer), the rate controller, the reference list and its
// reset at every I frame, reconstruction frames (recycled through a free
// list, half-pel plane memory included) and their border extension,
// slice dispatch on the installed runners, the payload layout
// (quantizer byte, slice table, per-slice quantizer bytes), and on the
// decode side packet validation and per-slice error collection. A slice
// coder owns its per-slice and per-row state (bitstreams, entropy
// contexts, predictors) and whatever it keeps per frame between
// BeginFrame and EndFrame. The contract:
//
//   - BeginFrame, EndFrame, NewReference and WireQ run on the goroutine
//     that called Encode/Decode/Flush, never concurrently with a slice.
//   - The EncodeSlice/DecodeSlice calls of one frame, one per slice, may
//     run concurrently. Between BeginFrame and EndFrame a slice coder may
//     read the reference list and the frames in it, and write recon only
//     inside its span's macroblock rows (never the borders); it may read
//     back what it wrote there, and nothing of another slice's rows —
//     which is why no runner can change a coded byte or a decoded sample.
//     An encoder's recon is recycled, so samples not yet written this
//     frame are stale: a coder that wants them zero clears them first.
package codec

import (
	"fmt"

	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/motion"
)

// EntropyMode selects the H.264 entropy coder (the MPEG-2/-4 codecs always
// use their VLC layers).
type EntropyMode int

const (
	// EntropyCABAC is the adaptive binary arithmetic coder (default).
	EntropyCABAC EntropyMode = iota
	// EntropyVLC is the Exp-Golomb fallback, the CAVLC-class ablation.
	EntropyVLC
)

// RefPad is the padding applied to reference frames. It must cover the
// motion search range plus the 6-tap/quarter-pel filter margin.
const RefPad = 32

// Config carries the coding options of §IV and Table IV of the paper.
type Config struct {
	Width, Height  int
	FPSNum, FPSDen int

	// Q is the quantizer in MPEG scale (1..31). The paper's benchmark point
	// is 5 (vqscale=5 / fixed_quant=5); H.264 maps it through Eq. 1.
	Q int

	// BFrames is the number of consecutive B pictures between references
	// (paper: 2, "I-P-B-B", adaptive placement disabled).
	BFrames int

	// IntraPeriod is the distance between intra frames; 0 means only the
	// first frame is intra (the paper's setting).
	IntraPeriod int

	// SearchRange is the full-pel motion search range (x264 line: 24).
	SearchRange int

	// Refs is the number of reference frames for H.264 P pictures.
	Refs int

	// Kernels selects scalar or SWAR implementations (Figure 1's axis).
	Kernels kernel.Set

	// Entropy selects the H.264 entropy coder.
	Entropy EntropyMode

	// Slices splits every frame into this many independently coded
	// macroblock-row bands (x264's sliced-threads shape). 0 or 1 keeps
	// one slice per frame. Unlike Workers, this affects the bitstream:
	// prediction state resets at every slice boundary, so different
	// slice counts produce different (all valid) streams, while a fixed
	// slice count is byte-identical at every worker count. More slices
	// buy intra-frame parallelism at a small prediction-efficiency cost.
	Slices int

	// Wavefront enables wavefront (2D) macroblock scheduling inside each
	// slice: macroblock compute runs as soon as its left and top-right
	// neighbours are done, spreading the rows of one slice across the
	// installed WavefrontRunner's workers. Unlike Slices it never touches
	// the bitstream — dependency-order execution reproduces exactly the
	// raster-order values, and emission stays in raster order — so output
	// is byte-identical with the flag on or off at every worker count.
	Wavefront bool

	// SceneCutIntra enables adaptive I-frame placement: a luma-SAD spike
	// between consecutive input frames (a scene cut) restarts the GOP with
	// an I frame at the cut instead of waiting for the next IntraPeriod
	// boundary. Opt-in because it changes the bitstream (frame types move);
	// off, streams are untouched.
	SceneCutIntra bool

	// TargetKbps, when positive, replaces constant-Q coding with a
	// rate-targeted mode: a per-frame quantizer controller (see
	// RateController) steers the stream toward TargetKbps kilobits per
	// second at the configured frame rate, and Q becomes the controller's
	// starting point instead of a constant. The per-frame quantizer
	// travels in the packet payload's existing leading q byte, so rate-
	// targeted streams decode with unchanged decoders; with Slices > 1
	// the controller also rebalances budget between slices, which adds a
	// per-slice q byte gated by container.FlagSliceQ. 0 keeps constant-Q
	// coding byte-identical to previous trees.
	TargetKbps int

	// MotionTap, when non-nil, receives each inter frame's full-pel
	// forward motion field right after the frame is coded, keyed by
	// display PTS. The field is freshly allocated per frame and never
	// written again after the call. Ladder encoding uses it to capture
	// the full-resolution rung's motion analysis.
	MotionTap func(pts int, field *motion.Field)

	// MotionHints, when non-nil, supplies a previously captured motion
	// field for the frame at the given display PTS (nil = no hint). The
	// encoder scales the field to its own geometry and injects the
	// per-macroblock vector as one extra EPZS/seed predictor in every
	// forward motion search — a near-optimal seed that lets the
	// early-termination machinery skip most of the search. Hints steer
	// where the search looks, so they can change the bitstream; ladder
	// determinism holds because the hint source itself is deterministic.
	MotionHints func(pts int) *motion.Field
}

// Default returns the paper's coding options for a given resolution.
func Default(width, height int) Config {
	return Config{
		Width: width, Height: height,
		FPSNum: 25, FPSDen: 1,
		Q:           5,
		BFrames:     2,
		IntraPeriod: 0,
		SearchRange: 24,
		Refs:        4,
		Kernels:     kernel.Scalar,
		Entropy:     EntropyCABAC,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("codec: invalid dimensions %dx%d", c.Width, c.Height)
	}
	if c.Width%16 != 0 || c.Height%16 != 0 {
		return fmt.Errorf("codec: dimensions must be multiples of 16, got %dx%d (the paper uses 1088, not 1080, for the same reason)", c.Width, c.Height)
	}
	if c.Q < 1 || c.Q > 31 {
		return fmt.Errorf("codec: quantizer %d out of range [1,31]", c.Q)
	}
	if c.BFrames < 0 || c.BFrames > 4 {
		return fmt.Errorf("codec: BFrames %d out of range [0,4]", c.BFrames)
	}
	if c.IntraPeriod < 0 {
		return fmt.Errorf("codec: IntraPeriod %d must be >= 0 (0 = first frame only)", c.IntraPeriod)
	}
	if c.SearchRange < 1 || c.SearchRange > RefPad-8 {
		return fmt.Errorf("codec: search range %d out of range [1,%d]", c.SearchRange, RefPad-8)
	}
	if c.Refs < 1 || c.Refs > 8 {
		return fmt.Errorf("codec: refs %d out of range [1,8]", c.Refs)
	}
	if c.FPSNum <= 0 || c.FPSDen <= 0 {
		return fmt.Errorf("codec: invalid frame rate %d/%d", c.FPSNum, c.FPSDen)
	}
	if c.Slices < 0 || c.Slices > MaxSlices {
		return fmt.Errorf("codec: slices %d out of range [0,%d]", c.Slices, MaxSlices)
	}
	if c.TargetKbps < 0 {
		return fmt.Errorf("codec: target bitrate %d kbps must be >= 0 (0 = constant Q)", c.TargetKbps)
	}
	return nil
}

// SliceQ reports whether streams under this configuration carry a
// per-slice quantizer byte (container.FlagSliceQ): rate-targeted coding
// with more than one slice per frame.
func (c Config) SliceQ() bool { return c.TargetKbps > 0 && c.Slices > 1 }

// MBCols returns the number of macroblock columns.
func (c Config) MBCols() int { return c.Width / 16 }

// MBRows returns the number of macroblock rows.
func (c Config) MBRows() int { return c.Height / 16 }

// FPS returns the frame rate as a float (for bitrate reporting).
func (c Config) FPS() float64 { return float64(c.FPSNum) / float64(c.FPSDen) }

// Encoder is what the harness drives; FrameEncoder implements it for
// every codec.
type Encoder interface {
	// Encode accepts the next frame in display order and returns zero or
	// more coded packets (the IPBB reordering delays B frames until their
	// backward reference is coded).
	Encode(f *frame.Frame) ([]container.Packet, error)
	// Flush drains buffered frames at end of stream.
	Flush() ([]container.Packet, error)
	// Header describes the stream for the container.
	Header() container.Header
	// Reset returns the encoder to the state of a fresh instance with the
	// same Config, keeping its buffers (reconstruction frames and their
	// half-pel planes, writer capacity, per-row records), so the next
	// Encode starts a new stream byte-identical to a fresh instance's.
	Reset()

	// SetSliceRunner runs each frame's slice jobs on r, SetWavefrontRunner
	// each slice's macroblock grid (used only under Config.Wavefront);
	// nil restores the serial default. internal/pipeline installs its
	// worker-budget gate through them. The coded output never depends on
	// a runner — only wall-clock does.
	SetSliceRunner(r SliceRunner)
	SetWavefrontRunner(r WavefrontRunner)
	// SetPTSBase sets the display index the next Encode stamps on its
	// frame (Frame.PTS, the packets' DisplayIndex and the MotionTap and
	// MotionHints keys); later frames count on from it. A chunk coder
	// starts each chunk at its place in the global timeline; a fresh or
	// Reset instance starts at zero.
	SetPTSBase(base int)
}

// Decoder is what the harness drives; FrameDecoder implements it for
// every codec.
type Decoder interface {
	// Decode consumes one coded packet and returns zero or more frames in
	// display order.
	Decode(p container.Packet) ([]*frame.Frame, error)
	// Flush drains the display reorder buffer at end of stream.
	Flush() []*frame.Frame
	// SetSliceRunner runs each frame's slice jobs on r (nil = serial).
	// Decoded samples never depend on the runner.
	SetSliceRunner(r SliceRunner)
	// SetPTSBase sets, before the first Decode, the display index the
	// decoder delivers first: a segment that opens mid-stream starts at
	// its I frame's index; a fresh instance starts at zero.
	SetPTSBase(base int)
}
