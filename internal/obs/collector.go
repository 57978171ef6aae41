package obs

import "time"

// Collector is the hook the encode pipeline reports through. The serving
// tier builds one against its registry and threads it down via
// EncoderOptions; a nil *Collector (the default everywhere outside the
// server) disables collection with no call-site guards — every method
// no-ops on nil, and the underlying metric cells are themselves
// nil-safe, so a partially populated Collector also works.
type Collector struct {
	// ChunkEncode observes the wall seconds a worker spent coding one
	// closed-GOP chunk (codec construction + EncodeChunk).
	ChunkEncode *Histogram
	// DrainStall observes the seconds the reader waited on the ordered
	// drain for the oldest in-flight chunk — near-zero when the pool
	// keeps ahead of the consumer, the head-of-line stall otherwise.
	DrainStall *Histogram
	// QueueDepth gauges chunks submitted to the encode pool and not yet
	// coded or dropped.
	QueueDepth *Gauge
	// GateWait observes the seconds a SliceGate dispatcher waited for
	// its spawned slice stragglers after finishing its own share.
	GateWait *Histogram
	// GateSpawned / GateInline count slice jobs that won a gate token
	// (ran on their own goroutine) vs ran inline on the dispatcher.
	GateSpawned *Counter
	GateInline  *Counter
	// WavefrontWait observes the seconds a wavefront row worker spent
	// parked waiting for its top-right dependency (the row above) — the
	// scheduler's stall signal: near-zero when rows stay staggered, the
	// dependency-chain cost otherwise.
	WavefrontWait *Histogram
	// FrontDepth observes the goroutines participating in one wavefront
	// front (caller plus token-funded helpers) — how wide the diagonal
	// actually ran, bounded by rows and by the tokens the slice/chunk
	// levels left available.
	FrontDepth *Histogram
}

// ChunkQueued notes one chunk entering the encode pool.
func (c *Collector) ChunkQueued() {
	if c != nil {
		c.QueueDepth.Add(1)
	}
}

// ChunkDone notes one chunk leaving the pool (coded, failed, or dropped
// by a teardown) — the balancing decrement for ChunkQueued.
func (c *Collector) ChunkDone() {
	if c != nil {
		c.QueueDepth.Add(-1)
	}
}

// ObserveChunkEncode records one chunk's encode wall time.
func (c *Collector) ObserveChunkEncode(d time.Duration) {
	if c != nil {
		c.ChunkEncode.Observe(d.Seconds())
	}
}

// ObserveDrainStall records one reader wait on the ordered drain.
func (c *Collector) ObserveDrainStall(d time.Duration) {
	if c != nil {
		c.DrainStall.Observe(d.Seconds())
	}
}

// ObserveGateWait records one dispatcher's straggler wait.
func (c *Collector) ObserveGateWait(d time.Duration) {
	if c != nil {
		c.GateWait.Observe(d.Seconds())
	}
}

// SliceSpawned counts a slice job dispatched to its own goroutine.
func (c *Collector) SliceSpawned() {
	if c != nil {
		c.GateSpawned.Inc()
	}
}

// SliceInline counts a slice job run inline for want of a gate token.
func (c *Collector) SliceInline() {
	if c != nil {
		c.GateInline.Inc()
	}
}

// ObserveWavefrontWait records one parked dependency wait of a wavefront
// row worker.
func (c *Collector) ObserveWavefrontWait(d time.Duration) {
	if c != nil {
		c.WavefrontWait.Observe(d.Seconds())
	}
}

// ObserveFrontDepth records the goroutine count of one wavefront front.
func (c *Collector) ObserveFrontDepth(n int) {
	if c != nil {
		c.FrontDepth.Observe(float64(n))
	}
}
