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
// channel wait, so stages sharing one gate — the decoder's pools and its
// serial fallback, or both halves of core.Transcode — cannot deadlock on
// it and together never run more than its Workers() goroutines.
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
// One goroutine writes (Write then exactly one Close, even after an
// abort); another reads until io.EOF or an error. Abort is safe from any
// goroutine and tears the stream down early — pending work is dropped
// and both sides unblock with ErrAborted. ReadPacket/ReadFrame abort the
// stream automatically when a worker fails, so a blocked writer cannot
// deadlock on an error the reader has already seen.
//
// On a one-worker gate — or with GOP <= 0, where no chunk boundaries
// exist — the engine degrades to a single persistent codec instance
// driven inline by Write, which is still constant-memory (the codec
// buffers only its B-frame lookahead and reference frames) and still
// byte-identical to the single-instance path. With more workers that single
// instance is not the end of parallelism: its slices and rows have the
// rest of the bank to themselves, so streams coded with Slices > 1 or
// Wavefront scale inside each frame even when the GOP gives the window
// scheduler nothing to chunk — including inside the decoder's
// serial-fallback window, which re-arms to chunked mode at the next
// closed-GOP boundary (see Decoder).
package stream

import (
	"errors"
	"sync/atomic"

	"hdvideobench/internal/pipeline"
)

// ErrAborted is returned by blocked or subsequent calls after Abort (or
// after a failure on the other side of the stream tore it down).
var ErrAborted = pipeline.ErrAborted

// ErrClosed is returned by Write after Close.
var ErrClosed = errors.New("stream: write after Close")

// DefaultWindowPerWorker sizes the default chunk window: two chunks per
// worker keeps every worker busy while the reader drains the previous
// result, without growing the frame footprint past 2×Workers×GOP.
const DefaultWindowPerWorker = 2

// FallbackPackets is the boundary-less segment length at which the
// chunked decoder gives up on GOP parallelism and falls back to the
// serial single-instance mode: a stream with no interior I frames (the
// paper's first-frame-only-intra setting) is a single segment, and
// buffering it whole would break the constant-memory guarantee. Only
// compressed packets — never decoded frames — are buffered up to this
// point, and serial decode of the replayed prefix is bit-identical, so
// the fallback trades parallelism for the memory bound, not
// correctness. Two mitigations keep the fallback cheap: sliced frames
// still decode in parallel inside it (on whatever tokens the draining
// pool is not using), and the decoder re-arms to
// chunked mode at the next boundary I frame, so the serial window is
// bounded by the pathological segment rather than the stream.
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
