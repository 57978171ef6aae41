package codec

import (
	"fmt"

	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
)

// GOPEntry is one scheduling decision: code Frame as Type now.
type GOPEntry struct {
	Frame *frame.Frame
	Type  container.FrameType
}

// GOPScheduler turns display-order input into coding-order entries for the
// paper's GOP: first frame I, then repeating B…B P groups ("I-P-B-B" with
// adaptive placement disabled), optional periodic intra refresh.
//
// Intra refresh produces *closed* GOPs: at a refresh boundary any buffered
// B candidates are coded as trailing P pictures (exactly as at end of
// stream) before the I frame opens the next GOP, so no picture references
// across an I frame. Every intra period is therefore independently
// codable and decodable — the invariant the internal/pipeline GOP-chunk
// parallelism relies on to keep parallel output byte-identical to serial.
type GOPScheduler struct {
	BFrames     int
	IntraPeriod int

	// SceneCut enables adaptive I-frame placement (Config.SceneCutIntra):
	// a frame whose subsampled-luma SAD against the previous input spikes
	// far above the running intra-shot average is promoted to a closed-GOP
	// I frame, exactly as if an IntraPeriod boundary fell there. Detection
	// state is local to this scheduler, so with GOP-chunk parallelism each
	// chunk detects cuts against its own history.
	SceneCut bool

	pending  []*frame.Frame // buffered B candidates
	count    int            // display frames consumed
	gopStart int            // display index of the current GOP's I frame

	prevGrid []byte // 1/8-subsampled luma of the previous pushed frame
	sadSum   int    // running sum of intra-shot grid SADs
	sadN     int
}

// The spike rule for SceneCut: a cut needs a mean absolute grid
// difference above sceneCutFloor AND sceneCutRatio times the running
// intra-shot average — the floor rejects global flicker on near-static
// shots, the ratio tracks each shot's own motion level.
const (
	sceneCutFloor = 12
	sceneCutRatio = 3
)

// observeCut folds one input frame into the detector and reports
// whether it starts a new shot.
func (g *GOPScheduler) observeCut(f *frame.Frame) bool {
	gw := (f.Width + 7) / 8
	gh := (f.Height + 7) / 8
	grid := make([]byte, gw*gh)
	for y := 0; y < gh; y++ {
		row := f.YOrigin + y*8*f.YStride
		for x := 0; x < gw; x++ {
			grid[y*gw+x] = f.Y[row+x*8]
		}
	}
	cut := false
	if len(g.prevGrid) == len(grid) {
		sad := 0
		for i, v := range grid {
			d := int(v) - int(g.prevGrid[i])
			if d < 0 {
				d = -d
			}
			sad += d
		}
		if g.sadN > 0 && sad > sceneCutFloor*len(grid) && sad > sceneCutRatio*(g.sadSum/g.sadN) {
			cut = true
		} else {
			// Only intra-shot SADs feed the running average, so one cut
			// does not desensitize the detector to the next.
			g.sadSum += sad
			g.sadN++
		}
	}
	g.prevGrid = grid
	return cut
}

// Push accepts the next display-order frame and returns the entries that
// can be coded now (a reference frame followed by its leading B pictures).
func (g *GOPScheduler) Push(f *frame.Frame) []GOPEntry {
	idx := g.count
	g.count++
	cut := false
	if g.SceneCut {
		cut = g.observeCut(f)
	}
	if idx == 0 || (g.IntraPeriod > 0 && idx%g.IntraPeriod == 0) || cut {
		// Closed-GOP boundary: drain B candidates as trailing P pictures,
		// then open the new GOP with an I frame.
		g.gopStart = idx
		return append(g.Flush(), GOPEntry{f, container.FrameI})
	}
	// Position within the current GOP's B…B P group.
	pos := (idx - g.gopStart - 1) % (g.BFrames + 1)
	if pos < g.BFrames {
		g.pending = append(g.pending, f)
		return nil
	}
	// Reference frame, coded before the buffered B frames that precede it
	// in display order.
	entries := make([]GOPEntry, 0, 1+len(g.pending))
	entries = append(entries, GOPEntry{f, container.FrameP})
	for _, b := range g.pending {
		entries = append(entries, GOPEntry{b, container.FrameB})
	}
	g.pending = g.pending[:0]
	return entries
}

// Reset returns the scheduler to its state before the first Push: no
// frame consumed, none buffered, no scene-cut history.
func (g *GOPScheduler) Reset() {
	clear(g.pending)
	*g = GOPScheduler{BFrames: g.BFrames, IntraPeriod: g.IntraPeriod, SceneCut: g.SceneCut, pending: g.pending[:0]}
}

// Flush codes any trailing buffered frames. Without a backward reference
// they are coded as P pictures (standard end-of-stream encoder behaviour).
func (g *GOPScheduler) Flush() []GOPEntry {
	entries := make([]GOPEntry, 0, len(g.pending)+1) // +1: Push appends an I frame
	for _, b := range g.pending {
		entries = append(entries, GOPEntry{b, container.FrameP})
	}
	g.pending = g.pending[:0]
	return entries
}

// MaxReorderDepth bounds the frames a DisplayReorderer holds back. A
// stream from this repository's encoders never has more than BFrames+1
// (at most 5) waiting for an earlier display index; without a bound, a
// hostile or damaged one parks a padded frame per packet.
const MaxReorderDepth = 16

// DisplayReorderer restores display order from coding order on the decoder
// side using the packets' display indices.
type DisplayReorderer struct {
	next    int
	pending []*frame.Frame // ascending PTS, none below next
}

// Check reports whether a frame with display index idx can be accepted:
// not one already delivered or already waiting, and not one more frame
// parked behind a display index that never arrives.
func (d *DisplayReorderer) Check(idx int) error {
	if idx < d.next {
		return fmt.Errorf("display index %d repeats a delivered frame (next is %d)", idx, d.next)
	}
	for _, f := range d.pending {
		if f.PTS == idx {
			return fmt.Errorf("display index %d repeats a pending frame", idx)
		}
	}
	if idx != d.next && len(d.pending) >= MaxReorderDepth {
		return fmt.Errorf("%d frames waiting for display index %d", len(d.pending), d.next)
	}
	return nil
}

// Add registers a decoded frame (PTS = display index, accepted by Check)
// and returns all frames that are now contiguously displayable.
func (d *DisplayReorderer) Add(f *frame.Frame) []*frame.Frame {
	i := len(d.pending)
	d.pending = append(d.pending, f)
	for ; i > 0 && d.pending[i-1].PTS > f.PTS; i-- {
		d.pending[i] = d.pending[i-1]
	}
	d.pending[i] = f
	n := 0
	for n < len(d.pending) && d.pending[n].PTS == d.next {
		d.next++
		n++
	}
	out := append([]*frame.Frame(nil), d.pending[:n]...)
	rest := copy(d.pending, d.pending[n:])
	clear(d.pending[rest:]) // delivered frames are the caller's now
	d.pending = d.pending[:rest]
	return out
}

// Flush returns any frames still buffered, in display order (gaps are
// skipped — they indicate a truncated stream).
func (d *DisplayReorderer) Flush() []*frame.Frame {
	out := d.pending
	if n := len(out); n > 0 {
		d.next = out[n-1].PTS + 1
	}
	d.pending = nil
	return out
}

// RefList is a most-recent-first list of reconstructed reference frames
// with a fixed capacity (H.264 multi-reference prediction; MPEG-2/-4's
// previous and last reference are a list of two).
type RefList struct {
	Max    int
	frames []*frame.Frame
}

// Add pushes a new reference and returns the oldest one it evicts
// beyond Max (nil while the list is filling). The list shifts within one
// Max-sized backing array for its whole life.
func (l *RefList) Add(f *frame.Frame) (dropped *frame.Frame) {
	if l.frames == nil {
		l.frames = make([]*frame.Frame, 0, l.Max)
	}
	if len(l.frames) < l.Max {
		l.frames = l.frames[:len(l.frames)+1]
	} else {
		dropped = l.frames[len(l.frames)-1]
	}
	copy(l.frames[1:], l.frames)
	l.frames[0] = f
	return dropped
}

// Len returns the number of available references.
func (l *RefList) Len() int { return len(l.frames) }

// Get returns reference i (0 = most recent), nil when the list is
// shorter than that.
func (l *RefList) Get(i int) *frame.Frame {
	if i >= len(l.frames) {
		return nil
	}
	return l.frames[i]
}

// Reset clears the list (intra refresh), appending the frames it drops
// to *free; a nil free lets them go.
func (l *RefList) Reset(free *[]*frame.Frame) {
	if free != nil {
		*free = append(*free, l.frames...)
	}
	clear(l.frames)
	l.frames = l.frames[:0]
}
