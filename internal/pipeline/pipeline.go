// Package pipeline provides GOP-parallel encoding and decoding for the
// three HD-VideoBench codecs — the paper's future-work direction
// ("parallel versions of the video Codecs ... for emerging chip
// multiprocessing architectures") promoted into the library.
//
// The scheduler exploits the closed-GOP invariant of the codec layer:
// when Config.IntraPeriod > 0 every intra period is an independent
// chunk — it starts with an I frame, none of its pictures reference
// across the boundary, and the encoders reset their reference state at
// every I frame. Each chunk is therefore encoded (or decoded) by a
// private codec instance on its own worker, and an ordered merge stage
// reassembles the results, so the output is byte-identical to the
// serial path for every worker count. A benchmark whose bitstream
// changed with GOMAXPROCS would be worthless; determinism here is load
// bearing and is enforced by pipeline_test.go.
//
// # Scheduling: three axes, one worker budget
//
// GOP chunks are the coarse axis; inside each frame the codecs can also
// run macroblock-row slices concurrently (Config.Slices > 1) and, inside
// each slice, macroblock rows on a wavefront (Config.Wavefront). All
// three draw on one SliceGate per encode/decode call — a bank of
// `workers` tokens — under one rule: a goroutine holds one token while
// it is inside a codec call; idle tokens go to whoever dispatches next.
// Chunk workers block for their token before a chunk and return it
// after; slice jobs and wavefront row helpers take one only if it is
// free and run inline on their dispatcher otherwise. With IntraPeriod ==
// 0 (the paper's first-frame-only-intra setting) there is one chunk, so
// the whole bank funds slices and rows; with more chunks than workers
// every token is busy with a chunk until the tail, where each worker
// that runs out of chunks lends its token to the frames still being
// coded. The budget is never split ahead of time and never exceeded.
package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
)

// EncoderFactory constructs a fresh encoder; each worker chunk gets its
// own instance, so factories must not share mutable state between the
// encoders they return.
type EncoderFactory func() (codec.Encoder, error)

// DecoderFactory constructs a fresh decoder for the stream being decoded.
type DecoderFactory func() (codec.Decoder, error)

// Workers normalizes a worker-count option: values below 1 select
// runtime.NumCPU() (the -workers flag default), 1 is the legacy serial
// path, anything else is used as given.
func Workers(n int) int {
	if n < 1 {
		return runtime.NumCPU()
	}
	return n
}

// span is a half-open chunk of the input, [lo, hi).
type span struct{ lo, hi int }

// chunkSpans splits n display-order frames into closed-GOP chunks of gop
// frames each (the last chunk may be ragged). gop <= 0 means no interior
// I frames exist, so the whole input is one chunk.
func chunkSpans(n, gop int) []span {
	if gop <= 0 || n == 0 {
		return []span{{0, n}}
	}
	spans := make([]span, 0, (n+gop-1)/gop)
	for lo := 0; lo < n; lo += gop {
		hi := lo + gop
		if hi > n {
			hi = n
		}
		spans = append(spans, span{lo, hi})
	}
	return spans
}

// runOrdered executes jobs 0..n-1 on at most gate.Workers() goroutines,
// each holding one of the gate's tokens while inside job, and returns
// the results in job order. Errors are reported for the lowest failing
// job index, so the failure surface is deterministic too.
func runOrdered[T any](gate *SliceGate, n int, job func(i int) (T, error)) ([]T, error) {
	workers := min(gate.Workers(), n)
	results := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				gate.Acquire(nil)
				r, err := job(i)
				gate.Release()
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// EncodeFrames encodes display-order frames with workers parallel codec
// instances, splitting the input into closed-GOP chunks of gop frames
// (normally Config.IntraPeriod). The returned packets — coding order,
// display indices, payload bytes — are byte-identical to driving a
// single encoder over the whole sequence. workers <= 1, gop <= 0, or a
// single-chunk input all take the serial path.
func EncodeFrames(newEnc EncoderFactory, gop, workers int, frames []*frame.Frame) ([]container.Packet, container.Header, error) {
	spans := chunkSpans(len(frames), gop)
	gate := NewSliceGate(workers)
	newEnc = gate.Encoders(newEnc)
	enc, err := newEnc()
	if err != nil {
		return nil, container.Header{}, err
	}
	hdr := enc.Header()
	if workers <= 1 || len(spans) <= 1 {
		// One instance on the calling goroutine: it holds one token and
		// the rest of the bank funds its slices and rows.
		gate.Acquire(nil)
		pkts, err := encodeAll(enc, frames)
		gate.Release()
		return pkts, hdr, err
	}

	chunks, err := runOrdered(gate, len(spans), func(i int) ([]container.Packet, error) {
		ce := enc
		if i > 0 {
			var err error
			if ce, err = newEnc(); err != nil {
				return nil, err
			}
		}
		pkts, err := EncodeChunk(ce, frames[spans[i].lo:spans[i].hi], spans[i].lo)
		if err != nil {
			return nil, fmt.Errorf("pipeline: chunk %d (frames %d-%d): %w", i, spans[i].lo, spans[i].hi-1, err)
		}
		return pkts, nil
	})
	if err != nil {
		return nil, container.Header{}, err
	}

	// Ordered merge: chunk streams concatenate in input order. Restore the
	// global display stamps on the input frames to match the serial path's
	// side effect (encoders overwrite Frame.PTS with the arrival index).
	total := 0
	for _, ps := range chunks {
		total += len(ps)
	}
	merged := make([]container.Packet, 0, total)
	for _, ps := range chunks {
		merged = append(merged, ps...)
	}
	for i, f := range frames {
		f.PTS = i
	}
	return merged, hdr, nil
}

func encodeAll(enc codec.Encoder, frames []*frame.Frame) ([]container.Packet, error) {
	var pkts []container.Packet
	for _, f := range frames {
		ps, err := enc.Encode(f)
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, ps...)
	}
	ps, err := enc.Flush()
	if err != nil {
		return nil, err
	}
	return append(pkts, ps...), nil
}

// EncodeChunk drives enc over one closed-GOP chunk of display-order
// frames and flushes it, shifting the chunk-local display indices the
// encoder stamps by base — the chunk's offset in the global timeline.
// It is the unit of work of both the batch scheduler above and the
// bounded-window streaming scheduler in internal/stream.
func EncodeChunk(enc codec.Encoder, frames []*frame.Frame, base int) ([]container.Packet, error) {
	// The encoder stamps chunk-local display indices; its motion
	// tap/hint callbacks need the global timeline to key their fields.
	enc.SetPTSBase(base)
	pkts, err := encodeAll(enc, frames)
	if err != nil {
		return nil, err
	}
	if base != 0 {
		for j := range pkts {
			pkts[j].DisplayIndex += base
		}
	}
	return pkts, nil
}

// segments splits a coding-order packet stream at closed-GOP boundaries:
// an I packet opens a new segment only when every earlier packet displays
// strictly before it and it displays first among the packets from it
// onward. The second condition is what rejects open GOPs — their
// mid-stream I frames are followed in coding order by leading B pictures
// that display earlier and reference across the boundary. Streams from
// this repository's encoders pass at every I frame; boundaries that fail
// stay merged with the preceding segment, which keeps the fallback
// correct, just less parallel.
func segments(pkts []container.Packet) []span {
	n := len(pkts)
	if n == 0 {
		return nil
	}
	suffixMin := make([]int, n+1)
	suffixMin[n] = int(^uint(0) >> 1)
	for i := n - 1; i >= 0; i-- {
		suffixMin[i] = pkts[i].DisplayIndex
		if suffixMin[i+1] < suffixMin[i] {
			suffixMin[i] = suffixMin[i+1]
		}
	}
	var spans []span
	lo, prefixMax := 0, -1
	for i, p := range pkts {
		if i > 0 && p.Type == container.FrameI &&
			prefixMax < p.DisplayIndex && p.DisplayIndex == suffixMin[i] {
			spans = append(spans, span{lo, i})
			lo = i
		}
		if p.DisplayIndex > prefixMax {
			prefixMax = p.DisplayIndex
		}
	}
	return append(spans, span{lo, n})
}

// DecodePackets decodes a coding-order packet stream with workers
// parallel decoder instances, one per closed GOP, returning frames in
// display order. Output frames and their PTS stamps are identical to the
// serial path for every worker count.
func DecodePackets(newDec DecoderFactory, workers int, pkts []container.Packet) ([]*frame.Frame, error) {
	spans := segments(pkts)
	gate := NewSliceGate(workers)
	newDec = gate.Decoders(newDec)
	if workers <= 1 || len(spans) <= 1 {
		dec, err := newDec()
		if err != nil {
			return nil, err
		}
		gate.Acquire(nil) // as in EncodeFrames
		defer gate.Release()
		return decodeAll(dec, pkts, 0)
	}

	chunks, err := runOrdered(gate, len(spans), func(i int) ([]*frame.Frame, error) {
		dec, err := newDec()
		if err != nil {
			return nil, err
		}
		out, err := DecodeSegment(dec, pkts[spans[i].lo:spans[i].hi])
		if err != nil {
			return nil, fmt.Errorf("pipeline: segment %d (packets %d-%d): %w", i, spans[i].lo, spans[i].hi-1, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	total := 0
	for _, fs := range chunks {
		total += len(fs)
	}
	merged := make([]*frame.Frame, 0, total)
	for _, fs := range chunks {
		merged = append(merged, fs...)
	}
	return merged, nil
}

// DecodeSegment decodes one closed-GOP segment of coding-order packets
// with a fresh decoder, returning its frames in display order with
// global PTS stamps. Each segment's display indices start at its I
// frame; the decoder's reorder buffer counts from zero, so the segment
// is decoded with segment-local stamps (rebased by the first packet's
// display index) and shifted back afterwards. Like EncodeChunk, it is
// shared by the batch scheduler and internal/stream.
func DecodeSegment(dec codec.Decoder, pkts []container.Packet) ([]*frame.Frame, error) {
	base := 0
	if len(pkts) > 0 {
		base = pkts[0].DisplayIndex
	}
	return decodeAll(dec, pkts, base)
}

// decodeAll drives dec over pkts with display indices rebased by -base,
// restoring the global stamps on the way out.
func decodeAll(dec codec.Decoder, pkts []container.Packet, base int) ([]*frame.Frame, error) {
	var out []*frame.Frame
	for _, p := range pkts {
		p.DisplayIndex -= base
		fs, err := dec.Decode(p)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	out = append(out, dec.Flush()...)
	if base != 0 {
		for _, f := range out {
			f.PTS += base
		}
	}
	return out, nil
}
