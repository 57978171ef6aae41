// Package pipeline holds the building blocks of the HD-VideoBench
// parallel codecs — the paper's future-work direction ("parallel versions
// of the video Codecs ... for emerging chip multiprocessing
// architectures") promoted into the library. internal/stream assembles
// them into the one chunk scheduler every encode, decode and transcode
// call runs on, batch calls included.
//
// The unit of work is a closed GOP. When Config.IntraPeriod > 0 every
// intra period is an independent chunk — it starts with an I frame, none
// of its pictures reference across the boundary, and the encoders reset
// their reference state at every I frame — so EncodeChunk and
// DecodeSegment code one chunk on a private codec instance, and an
// OrderedPool runs chunks on a fixed set of workers and hands the results
// back in submission order. The output is therefore byte-identical to a
// single instance coding the whole sequence, for every worker count. A
// benchmark whose bitstream changed with GOMAXPROCS would be worthless;
// determinism here is load bearing and is enforced by the equivalence
// tests in internal/core and internal/stream.
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
	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
)

// EncoderFactory constructs a fresh encoder. The chunk scheduler calls it
// at most once per chunk worker and Resets an instance between the
// chunks it codes; instances run concurrently, so factories must not
// share mutable state between the encoders they return.
type EncoderFactory func() (codec.Encoder, error)

// DecoderFactory constructs a fresh decoder for the stream being decoded.
type DecoderFactory func() (codec.Decoder, error)

// EncodeChunk drives enc over one closed-GOP chunk of display-order
// frames and flushes it. base is the chunk's first display index in the
// stream: the encoder stamps it and counts on, so frames, packets and
// motion callbacks carry global indices. It is the unit of work of the
// streaming scheduler in internal/stream, and with base 0 over a whole
// sequence the single-instance reference.
func EncodeChunk(enc codec.Encoder, frames []*frame.Frame, base int) ([]container.Packet, error) {
	enc.SetPTSBase(base)
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

// DecodeSegment decodes one closed-GOP segment of coding-order packets
// with a fresh decoder, returning its frames in display order. The
// decoder starts its display count at the first packet's index — the
// segment's I frame — so the frames carry global PTS stamps. Like
// EncodeChunk, it is the streaming scheduler's unit of work and, over a
// whole stream, the single-instance reference.
func DecodeSegment(dec codec.Decoder, pkts []container.Packet) ([]*frame.Frame, error) {
	if len(pkts) > 0 {
		dec.SetPTSBase(pkts[0].DisplayIndex)
	}
	var out []*frame.Frame
	for _, p := range pkts {
		fs, err := dec.Decode(p)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	return append(out, dec.Flush()...), nil
}
