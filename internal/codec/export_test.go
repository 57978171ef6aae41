package codec

import "hdvideobench/internal/frame"

// Controller exposes the encoder driver's rate controller (nil at
// constant Q) so the external tests can compare its state with a model's.
func (e *FrameEncoder) Controller() *RateController { return e.rc }

// TapRecon hands fn every frame's reconstruction as the decoder will
// output it: after the slice coder's EndFrame (the in-loop filter, if
// any), before the driver extends its borders or keeps it as a
// reference. fn must not keep recon past the call.
func (e *FrameEncoder) TapRecon(fn func(recon *frame.Frame)) { e.sc = reconTap{e.sc, fn} }

type reconTap struct {
	SliceEncoder
	fn func(recon *frame.Frame)
}

func (t reconTap) EndFrame(recon *frame.Frame, q int) {
	t.SliceEncoder.EndFrame(recon, q)
	t.fn(recon)
}

// Every test in this package codes into poisoned recycled frames.
func init() { poisonRecycled = true }
