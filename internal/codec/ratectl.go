package codec

import "hdvideobench/internal/container"

// RateController steers a stream toward Config.TargetKbps with a
// per-frame quantizer, plus per-slice quantizer rebalancing when the
// frame is sliced. The model is TM5-flavored:
//
//   - each frame type (I/P/B) keeps a complexity estimate X = bits·q
//     (for a DCT codec, produced bits scale roughly with 1/q, so X is
//     approximately rate-invariant);
//   - the next frame's quantizer is X divided by its bit target, where
//     the target is the per-frame budget corrected by a fraction of the
//     accumulated over/under-spend (the integrator that pins the long-
//     run average to the declared rate);
//   - slices are rebalanced between frames: a slice that spent well
//     under the frame's per-slice average gets a lower quantizer next
//     frame, an over-spender a higher one, so flat bottom slices stop
//     systematically under-spending their share of the budget.
//
// Determinism: every I frame resets the controller completely (Reset),
// mirroring the codecs' closed-GOP reference resets — a GOP-parallel
// encoder that starts each chunk on a new or Reset instance makes
// exactly the decisions the serial encoder makes, so rate-targeted
// streams stay byte-identical at every worker count. All state advances in coding
// order only, which both paths share.
type RateController struct {
	baseQ        int
	bitsPerFrame float64

	x   [3]float64 // complexity per frame type: bits·q, EWMA
	err float64    // cumulative bits spent minus budget since last I

	lastQ     int
	sliceBits []int // previous frame's per-slice bits
	sliceQs   []int // scratch for SliceQs
}

// NewRateController returns a controller for cfg, or nil when cfg is
// constant-Q (TargetKbps == 0) — callers treat a nil controller as
// "rate control off".
func NewRateController(cfg Config) *RateController {
	if cfg.TargetKbps <= 0 {
		return nil
	}
	return &RateController{
		baseQ:        cfg.Q,
		bitsPerFrame: float64(cfg.TargetKbps) * 1000 / cfg.FPS(),
	}
}

func ftIndex(t container.FrameType) int {
	switch t {
	case container.FrameI:
		return 0
	case container.FrameP:
		return 1
	}
	return 2
}

// Reset clears all adaptive state. Encoders call it when an I frame
// starts a new closed GOP, which is what keeps GOP-parallel rate-
// targeted output byte-identical to the serial path.
func (rc *RateController) Reset() {
	rc.x = [3]float64{}
	rc.err = 0
	rc.sliceBits = rc.sliceBits[:0]
}

// FrameQ returns the quantizer for the next frame in coding order.
func (rc *RateController) FrameQ(t container.FrameType) int {
	if t == container.FrameI {
		rc.Reset()
	}
	x := rc.x[ftIndex(t)]
	if x == 0 {
		// No complexity sample for this type yet: B frames borrow the P
		// estimate (they are cheaper, so this errs mildly high — safe);
		// otherwise start from the configured quantizer.
		if t == container.FrameB && rc.x[1] > 0 {
			x = rc.x[1]
		} else {
			rc.lastQ = clampQ(rc.baseQ)
			return rc.lastQ
		}
	}
	// Spend the per-frame budget minus a quarter of the accumulated
	// overshoot: the 1/4 gain drains a one-frame error over four frames,
	// fast enough to pin the average yet smooth enough not to oscillate.
	target := rc.bitsPerFrame - rc.err/4
	if target < rc.bitsPerFrame/8 {
		target = rc.bitsPerFrame / 8
	}
	rc.lastQ = clampQ(int(x/target + 0.5))
	return rc.lastQ
}

// AddFrame observes the coded size of the frame FrameQ last quantized.
func (rc *RateController) AddFrame(t container.FrameType, bits int) {
	i := ftIndex(t)
	sample := float64(bits) * float64(rc.lastQ)
	if rc.x[i] == 0 {
		rc.x[i] = sample
	} else {
		rc.x[i] = (rc.x[i] + sample) / 2
	}
	rc.err += float64(bits) - rc.bitsPerFrame
}

// SliceQs maps a frame quantizer onto per-slice quantizers using the
// previous frame's per-slice spending: under-spenders step down (finer
// quantization, picking up the budget the frame is not using), over-
// spenders step up. With no history — the frame after a Reset, or a
// slice-count change — every slice gets the frame quantizer. The
// returned slice is scratch, valid until the next call.
func (rc *RateController) SliceQs(frameQ, n int) []int {
	if cap(rc.sliceQs) < n {
		rc.sliceQs = make([]int, n)
	}
	qs := rc.sliceQs[:n]
	total := 0
	for _, b := range rc.sliceBits {
		total += b
	}
	if len(rc.sliceBits) != n || total == 0 {
		for i := range qs {
			qs[i] = frameQ
		}
		return qs
	}
	avg := float64(total) / float64(n)
	for i := range qs {
		share := float64(rc.sliceBits[i]) / avg
		d := 0
		switch {
		case share < 0.5:
			d = -2
		case share < 0.8:
			d = -1
		case share > 2.0:
			d = 2
		case share > 1.3:
			d = 1
		}
		qs[i] = clampQ(frameQ + d)
	}
	return qs
}

// AddSlices observes the per-slice coded sizes of the frame just coded,
// feeding the next frame's rebalance.
func (rc *RateController) AddSlices(spans []SliceSpan) {
	rc.sliceBits = rc.sliceBits[:0]
	for _, s := range spans {
		rc.sliceBits = append(rc.sliceBits, 8*s.Size)
	}
}

func clampQ(q int) int {
	if q < 1 {
		return 1
	}
	if q > 31 {
		return 31
	}
	return q
}
