// Package slo is the real-time serving benchmark behind cmd/hdvslo: it
// drives an hdvserve instance with N concurrent synthetic viewers, each
// consuming the chunked HDVB stream against wall-clock frame deadlines,
// and reports what production serving is judged by — dropped and late
// frames, time-to-first-byte and per-frame latency quantiles, and the
// maximum concurrent stream count that sustains a deadline-miss budget.
// The fps-style throughput suite (cmd/hdvbench) answers "how fast";
// this package answers "how many viewers, at what tail".
//
// # Deadline model
//
// A viewer requests a stream and consumes coded frames (container
// packets, in coding order) as they arrive. The completion of frame 0
// anchors playback: frame i's deadline is i display periods (1/fps)
// after that anchor, the startup latency itself being measured
// separately as TTFB. Frame i's lateness is its arrival past its
// deadline:
//
//	late:    0 < lateness < DropAfter  (the player stalls, then shows it)
//	dropped: lateness >= DropAfter     (its display window fully missed;
//	                                    the player skips it)
//
// DropAfter defaults to one period. Frames a truncated stream never
// delivers count as dropped against the container header's declared
// frame count. The per-frame latency distribution is max(0, lateness)
// over delivered frames — p50 == 0 reads "at least half the frames were
// on time", and the p95/p99 tail is the stall the 95th/99th-percentile
// frame causes.
//
// # Pacing and backpressure
//
// Viewers are paced, not greedy: a viewer reads at most ReadAhead
// frames past the playhead (default one second's worth), then sleeps
// until the playhead catches up, exactly like a player with a bounded
// jitter buffer. The unread bytes back-pressure the server through the
// HTTP connection, so an overloaded server sees the same queueing a
// real viewer fleet produces.
//
// The accounting core (Tally) is a pure function over an arrival
// schedule, and pacing runs against an injected Clock, so the unit
// tests drive synthetic schedules through a fake clock and assert
// exact late/drop counts and quantiles — no wall-clock flakiness.
//
// # Search mode
//
// Search binary-searches the viewer count (doubling, then bisecting)
// for the largest N whose run stays within a deadline-miss budget
// (misses = late + dropped, as a fraction of expected frames; any
// transport error disqualifies). That N — max sustainable streams — is
// the capacity figure the hdvslo -json report carries per {cold, warm}
// × fps point: cold measures the encode path, warm the gopcache serving
// path.
package slo

import (
	"context"
	"time"
)

// Clock abstracts wall time for the pacer so tests can drive it
// deterministically.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// Real is the wall-clock Clock used outside tests.
var Real Clock = realClock{}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
