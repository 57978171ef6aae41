package core

import (
	"fmt"
	"sync"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/motion"
)

// encodeLadderRef is the sequential ladder the streaming pass replaced,
// kept as its specification: the analysis rung codes the whole clip
// first, capturing every motion field, and only then does each seeded
// rung downscale the whole clip and code it with those fields as
// hints. TestLadderStreamMatchesReference compares every rung of the
// streaming pass with it byte for byte.
func encodeLadderRef(id CodecID, cfg codec.Config, frames []*frame.Frame, rungs []LadderRung, workers int) ([]LadderRendition, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateLadder(rungs, cfg.Width, cfg.Height); err != nil {
		return nil, err
	}
	top := 0
	for i, r := range rungs {
		if r.Width*r.Height > rungs[top].Width*rungs[top].Height {
			top = i
		}
	}

	// Motion fields of the analysis rung, keyed by display PTS. Written
	// under the mutex (GOP-parallel chunk encoders tap concurrently),
	// read lock-free afterwards — the pipeline join orders the accesses.
	var mu sync.Mutex
	fields := make(map[int]*motion.Field, len(frames))

	out := make([]LadderRendition, len(rungs))
	encodeRung := func(i int) error {
		r := rungs[i]
		rcfg := cfg
		rcfg.Width, rcfg.Height = r.Width, r.Height
		rcfg.TargetKbps = r.Kbps
		rcfg.MotionTap, rcfg.MotionHints = nil, nil
		if i == top {
			rcfg.MotionTap = func(pts int, f *motion.Field) {
				mu.Lock()
				fields[pts] = f
				mu.Unlock()
			}
		} else {
			rcfg.MotionHints = func(pts int) *motion.Field { return fields[pts] }
		}
		in := frames
		if r.Width != cfg.Width || r.Height != cfg.Height {
			in = make([]*frame.Frame, len(frames))
			for j, f := range frames {
				in[j] = frame.DownscaleNew(f, r.Width, r.Height)
			}
		}
		pkts, hdr, err := EncodeSequenceParallel(id, rcfg, in, workers)
		if err != nil {
			return fmt.Errorf("core: ladder rung %s: %w", r.Name, err)
		}
		out[i] = LadderRendition{Rung: r, Header: hdr, Packets: pkts}
		return nil
	}

	// The analysis rung must finish before any seeded rung starts: the
	// seeded searches read its complete motion-field map.
	if err := encodeRung(top); err != nil {
		return nil, err
	}
	for i := range rungs {
		if i == top {
			continue
		}
		if err := encodeRung(i); err != nil {
			return nil, err
		}
	}
	return out, nil
}
