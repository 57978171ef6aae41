// Package stream is the one chunk scheduler: an incremental engine that
// encodes, decodes and transcodes sequences of any length at constant
// memory, built from internal/pipeline's OrderedPool, SliceGate and
// chunk coders. Every entry point runs on it — a batch call is a stream
// over a slice (internal/core feeds the slice in and drains the result).
//
// # The window/backpressure model
//
// Both directions are scheduled the same way. The input side accumulates
// work into closed-GOP chunks — GOP frames on the encode side, the
// packets between consecutive closed-GOP I frames on the decode side —
// and submits each completed chunk to a pipeline.OrderedPool: a fixed
// set of worker goroutines, each coding a chunk on a codec instance no
// other chunk is using, with results drained in submission order (the
// decoder builds an instance per segment; the encoder Resets and reuses
// its instances, so it builds at most one per worker). The pool admits at
// most Window chunks that are submitted, processing, or emitted but not
// yet consumed. When the window is full, Write blocks until the reader
// drains a chunk; when the reader outruns the writer, ReadPacket /
// ReadFrame block until a chunk completes. Peak residency is therefore
// O(Window × GOP) frames regardless of sequence length — the property
// that lets cmd/vcodec transcode arbitrarily long sequences and
// cmd/hdvserve cap per-request memory. The Encoder and Decoder track
// their own raw-frame residency and expose the high-water mark via
// PeakResident, so the bound is asserted, not assumed, in the tests.
//
// # One worker budget
//
// Every Encoder and Decoder is built on a pipeline.SliceGate, the token
// bank of one encode/decode call, and obeys its one rule: a goroutine
// holds one token while it is inside a codec call; idle tokens go to
// whoever dispatches next. Chunk workers block for a token before each
// chunk and return it after, the writer driving a single persistent
// instance does the same around each Encode/Decode/Flush, and every
// codec instance — in every mode — offers its frame's slices and
// wavefront rows to the gate, which runs them on tokens that happen to
// be free and inline otherwise. Nothing splits the budget ahead of
// time: a window full of chunks keeps every token on a chunk, and a
// worker with no chunk left (the tail of a stream, a slow producer, a
// stream with no interior I frames) leaves its token in the bank for the
// frames still being coded. Tokens are never held across a window or
// channel wait, so stages sharing one gate — the decoder's pool workers
// and the writer decoding its streamed segment, or both halves of
// core.Transcode — cannot deadlock on it and together never run more
// than its Workers() goroutines.
//
// # Determinism
//
// Chunk workers inherit the closed-GOP invariant of internal/pipeline:
// every chunk starts at an I frame, nothing references across the
// boundary, and codec state resets there, so the output is byte-identical
// to a single codec instance over the whole sequence for every worker
// count and window size. stream_test.go proves the full
// codec × resolution × workers matrix.
//
// # Concurrency contract
//
// One goroutine writes (Write then exactly one Close, even after a
// failure); another reads until io.EOF or an error. An Encoder or
// Decoder is built on the context of the call it serves and on that
// context's cancel, and cancelling it is the one teardown: every pool
// the stream builds sits on that context, pending work is dropped and
// both sides unblock — as do the other stages of the call. The first
// failure is the cause and every later call returns it: a worker error
// the reader sees (a codec panic in a chunk worker included), a codec
// error in Write, a failure elsewhere in the call, or Abort, whose cause
// is ErrAborted.
//
// On a one-worker gate — or with GOP <= 0, where no chunk boundaries
// exist — the engine degrades to a single persistent codec instance
// driven inline by Write (the decoder's one streamed segment), which is
// still constant-memory (the codec buffers only its B-frame lookahead
// and reference frames) and byte-identical to the single-instance path.
// Write takes a token for each codec call there too: a one-worker gate
// banks its one token like any other, so the serial stages of one call —
// both halves of a transcode, the rungs of a ladder — take turns on it.
// With more workers that single instance is not the end of parallelism:
// its slices and rows have the rest of the bank to themselves, so
// streams coded with Slices > 1 or Wavefront scale inside each frame
// even when the GOP gives the window scheduler nothing to chunk —
// including inside a decoder segment streamed for want of boundaries,
// which the next closed-GOP boundary ends (see Decoder).
package stream

import (
	"context"
	"errors"
	"io"
	"sync/atomic"

	"hdvideobench/internal/pipeline"
)

// ErrAborted is the cause Abort tears a stream down with: blocked and
// later calls return it.
var ErrAborted = pipeline.ErrAborted

// ErrClosed is returned by Write after Close.
var ErrClosed = errors.New("stream: write after Close")

// DefaultWindowPerWorker sizes the default chunk window: two chunks per
// worker keeps every worker busy while the reader drains the previous
// result, without growing the frame footprint past 2×Workers×GOP.
const DefaultWindowPerWorker = 2

// FallbackPackets is the boundary-less segment length at which the
// decoder stops collecting a segment for a pool worker and streams it
// instead: a stream with no interior I frames (the paper's
// first-frame-only-intra setting) is a single segment, and buffering it
// whole would break the constant-memory guarantee. Only compressed
// packets — never decoded frames — are buffered up to this point, and
// the writer's decode of the replayed prefix is bit-identical, so
// streaming trades GOP parallelism for the memory bound, not
// correctness. Two mitigations keep it cheap: sliced frames still
// decode in parallel inside the segment (on whatever tokens the pool's
// workers are not using), and the next boundary I frame ends the
// streamed segment, so the serial stretch is bounded by the
// pathological segment rather than the stream.
const FallbackPackets = 256

// normWindow resolves a window option against a worker count: non-positive
// selects the default, and the window is never smaller than the worker
// count (a tighter window would just idle workers).
func normWindow(window, workers int) int {
	if window <= 0 {
		window = DefaultWindowPerWorker * workers
	}
	if window < workers {
		window = workers
	}
	if window < 2 {
		window = 2
	}
	return window
}

// gauge is an atomic level/high-water-mark pair: the residency
// accounting both the Encoder and Decoder expose via PeakResident.
type gauge struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// add moves the level by d, folding increases into the high-water mark.
func (g *gauge) add(d int) {
	n := g.cur.Add(int64(d))
	for d > 0 {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
}

// high reports the high-water mark.
func (g *gauge) high() int { return int(g.peak.Load()) }

// teardown is the cancellation state an Encoder and a Decoder share: the
// call's context and cancel, and the reader's sticky error.
type teardown struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	rerr   error // reader side only
}

// Abort tears the stream — with the rest of its call — down early
// (client gone, downstream failure) with ErrAborted as its cause:
// pending work is dropped and blocked Write and read calls return. Safe
// from any goroutine; idempotent, and a no-op on a stream that already
// failed. The writer must still call Close.
func (t *teardown) Abort() { t.cancel(ErrAborted) }

// fail tears the stream down with err unless an earlier failure already
// did, and returns the cause: the first failure wins.
func (t *teardown) fail(err error) error {
	t.cancel(err)
	return context.Cause(t.ctx)
}

// held runs call, one codec call of the stream's single persistent
// instance, under a token of gate that is given back even if call
// panics; after a teardown it returns the cause without running call.
func (t *teardown) held(gate *pipeline.SliceGate, call func() error) error {
	if t.ctx.Err() != nil || !gate.Acquire(t.ctx) {
		return context.Cause(t.ctx)
	}
	defer gate.Release()
	return call()
}

// dead reports the reader's sticky error; a torn-down stream is dead
// even if coded data remains.
func (t *teardown) dead() error {
	if t.rerr == nil && t.ctx.Err() != nil {
		t.rerr = context.Cause(t.ctx)
	}
	return t.rerr
}

// readErr makes an error the reader met sticky: io.EOF ends a live
// stream, anything else — or the end of a torn-down one — is its
// failure.
func (t *teardown) readErr(err error) error {
	if err != io.EOF || t.ctx.Err() != nil {
		err = t.fail(err)
	}
	t.rerr = err
	return err
}
