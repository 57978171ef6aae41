package core

import (
	"fmt"
	"io"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/obs"
	"hdvideobench/internal/pipeline"
	"hdvideobench/internal/stream"
)

// NewStreamEncoder builds the bounded-memory streaming encoder for a
// codec: frames go in through Write, coded packets come out of
// ReadPacket, and at most window closed-GOP chunks (cfg.IntraPeriod
// frames each) are in flight at once. workers <= 1 or
// cfg.IntraPeriod <= 0 runs the serial single-instance mode; negative
// workers selects runtime.NumCPU(). Output is byte-identical to the
// batch path for every worker count and window. col, when non-nil,
// receives the pipeline's self-measurements (chunk encode time, queue
// depth, drain stalls, slice-gate and wavefront waits); nil disables
// collection.
func NewStreamEncoder(id CodecID, cfg codec.Config, workers, window int, col *obs.Collector) (*stream.Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return stream.NewEncoder(encoderFactory(id, cfg), cfg.IntraPeriod, workerGate(workers, col), window)
}

// NewStreamDecoder builds the streaming decoder for a coded stream
// header: packets go in through Write, display-order frames come out of
// ReadFrame, with at most window closed-GOP segments in flight.
// workers <= 1 selects the serial mode; negative workers selects
// runtime.NumCPU().
func NewStreamDecoder(hdr container.Header, kern kernel.Set, workers, window int) (*stream.Decoder, error) {
	return stream.NewDecoder(decoderFactory(hdr, kern), workerGate(workers, nil), window)
}

// workerGate builds the token bank of one streaming call: every stage of
// the call is constructed on it, so together they keep to `workers`
// codec goroutines.
func workerGate(workers int, col *obs.Collector) *pipeline.SliceGate {
	if workers < 0 {
		workers = pipeline.Workers(0)
	}
	return pipeline.NewSliceGate(workers).Observe(col)
}

func encoderFactory(id CodecID, cfg codec.Config) pipeline.EncoderFactory {
	return func() (codec.Encoder, error) { return NewEncoder(id, cfg) }
}

func decoderFactory(hdr container.Header, kern kernel.Set) pipeline.DecoderFactory {
	return func() (codec.Decoder, error) { return NewDecoder(hdr, kern) }
}

// StreamStats summarizes one streaming pass.
type StreamStats struct {
	Frames int   // frames through the codec
	Bytes  int64 // container bytes on the coded side
}

// feed drives a source into a windowed stage from its writer goroutine,
// implementing the writer half of the teardown contract once for every
// pipeline: io.EOF from the source closes the stage cleanly, a source
// error aborts and closes it, and a write error (the stage is already
// dead or rejected the item) closes it — after notifying further
// upstream stages via onWriteFail, when there are any.
func feed[T any](next func() (T, error), write func(T) error, closeStage func() error, abort func(), onWriteFail func()) error {
	for {
		v, err := next()
		if err == io.EOF {
			return closeStage()
		}
		if err != nil {
			abort()
			closeStage()
			return err
		}
		if err := write(v); err != nil {
			if onWriteFail != nil {
				onWriteFail()
			}
			closeStage()
			return err
		}
	}
}

// drain is the reader half: it moves a stage's output into a sink until
// io.EOF, aborting the listed stages when the sink fails so blocked
// writers unblock.
func drain[T any](next func() (T, error), sink func(T) error, onSinkFail ...func()) error {
	for {
		v, err := next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := sink(v); err != nil {
			for _, abort := range onSinkFail {
				abort()
			}
			return err
		}
	}
}

// EncodeStream pulls display-order frames from next until it returns
// io.EOF, encodes them with the streaming engine, and writes the HDVB
// container to w incrementally — peak memory stays O(window × GOP)
// regardless of sequence length. Any error from next, the codec, or w
// tears the whole pipeline down and is returned.
//
// frames is the declared sequence length for the container header: when
// the caller knows it upfront (a server encoding an N-frame request),
// declaring it lets readers distinguish a truncated transfer from a
// complete stream — per-packet flushing means a dropped stream ends at
// a packet boundary, where an undeclared-length container looks
// perfectly complete. Pass 0 when the length is unknown (reading a file
// of frames until EOF); readers then consume until EOF, matching the
// batch path's header byte for byte.
//
// onGOP, when non-nil, is called once per closed-GOP chunk with the byte
// offset its first packet begins at in the container stream and the
// display index of its first (I) frame — the record the disk-backed GOP
// cache appends to entries so ranged/seeking clients get GOP-aligned
// spans. The output bytes are identical with and without the tap; only
// the drain granularity changes (whole chunks instead of single packets,
// so each chunk's coded packets are buffered before writing — use a
// bounded IntraPeriod when tapping, or a boundary-less stream degrades
// to one stream-sized chunk of coded bytes).
func EncodeStream(w io.Writer, id CodecID, cfg codec.Config, workers, window, frames int, next func() (*frame.Frame, error), onGOP func(offset int64, frame int), col *obs.Collector) (StreamStats, error) {
	enc, err := NewStreamEncoder(id, cfg, workers, window, col)
	if err != nil {
		return StreamStats{}, err
	}
	hdr := enc.Header()
	if frames > 0 {
		hdr.Frames = frames
	}
	sw, err := container.NewStreamWriter(w, hdr)
	if err != nil {
		enc.Abort()
		enc.Close()
		return StreamStats{}, err
	}

	feedErr := make(chan error, 1)
	go func() { feedErr <- feed(next, enc.Write, enc.Close, enc.Abort, nil) }()
	var werr error
	if onGOP == nil {
		werr = drain(enc.ReadPacket, func(p container.Packet) error {
			if err := sw.WritePacket(p); err != nil {
				return fmt.Errorf("core: writing stream: %w", err)
			}
			return nil
		}, enc.Abort)
	} else {
		// Chunk-granular drain: record where each GOP starts before its
		// first packet lands, still writing (and flushing) per packet.
		werr = drain(enc.ReadChunk, func(pkts []container.Packet) error {
			onGOP(sw.BytesWritten(), pkts[0].DisplayIndex)
			for _, p := range pkts {
				if err := sw.WritePacket(p); err != nil {
					return fmt.Errorf("core: writing stream: %w", err)
				}
			}
			return nil
		}, enc.Abort)
	}
	ferr := <-feedErr
	stats := StreamStats{Frames: sw.Count(), Bytes: sw.BytesWritten()}
	return stats, firstError(werr, ferr)
}

// DecodeStream reads an HDVB container from r incrementally, decodes it
// with the streaming engine, and hands each display-order frame to
// yield. An error from yield aborts the pipeline and is returned.
func DecodeStream(r io.Reader, kern kernel.Set, workers, window int, yield func(*frame.Frame) error) (container.Header, StreamStats, error) {
	sr, err := container.NewStreamReader(r)
	if err != nil {
		return container.Header{}, StreamStats{}, err
	}
	hdr := sr.Header()
	dec, err := NewStreamDecoder(hdr, kern, workers, window)
	if err != nil {
		return hdr, StreamStats{}, err
	}

	feedErr := make(chan error, 1)
	go func() { feedErr <- feed(sr.Next, dec.Write, dec.Close, dec.Abort, nil) }()
	frames := 0
	werr := drain(dec.ReadFrame, func(f *frame.Frame) error {
		if err := yield(f); err != nil {
			return err
		}
		frames++
		return nil
	}, dec.Abort)
	ferr := <-feedErr
	stats := StreamStats{Frames: frames, Bytes: sr.BytesRead()}
	return hdr, stats, firstError(werr, ferr)
}

// TranscodeStats summarizes one streaming transcode.
type TranscodeStats struct {
	In, Out  container.Codec
	Frames   int
	BytesIn  int64
	BytesOut int64
}

// Transcode decodes the HDVB stream on r and re-encodes it as target,
// writing the resulting container to w — all four stages (container
// read, decode, encode, container write) run concurrently with bounded
// windows, so sequences of any length transcode at constant memory.
// cfgFor maps the parsed input header to the target coding options
// (dimensions normally copy the input's). workers/window as in
// NewStreamEncoder; the two codec stages share one budget of workers
// tokens, so the decode side gets what the encode side is not using and
// the whole transcode keeps to `workers` codec goroutines. (workers <= 1
// is the serial path and banks nothing: each stage drives its one
// instance inline on its own pipeline goroutine, as it always has.)
func Transcode(r io.Reader, w io.Writer, target CodecID, kern kernel.Set, workers, window int, cfgFor func(container.Header) (codec.Config, error), col *obs.Collector) (TranscodeStats, error) {
	sr, err := container.NewStreamReader(r)
	if err != nil {
		return TranscodeStats{}, err
	}
	hdr := sr.Header()
	cfg, err := cfgFor(hdr)
	if err != nil {
		return TranscodeStats{}, err
	}
	if err := cfg.Validate(); err != nil {
		return TranscodeStats{}, err
	}
	return transcode(sr, w, decoderFactory(hdr, kern), encoderFactory(target, cfg), cfg.IntraPeriod, workers, window, col)
}

// transcode is Transcode from the point where the codecs are chosen: it
// builds both codec stages on one gate and runs the four-stage pipeline.
func transcode(sr *container.StreamReader, w io.Writer, newDec pipeline.DecoderFactory, newEnc pipeline.EncoderFactory, gop, workers, window int, col *obs.Collector) (TranscodeStats, error) {
	hdr := sr.Header()
	gate := workerGate(workers, col)
	dec, err := stream.NewDecoder(newDec, gate, window)
	if err != nil {
		return TranscodeStats{}, err
	}
	enc, err := stream.NewEncoder(newEnc, gop, gate, window)
	if err != nil {
		dec.Abort()
		dec.Close()
		return TranscodeStats{}, err
	}
	ohdr := enc.Header()
	ohdr.Frames = hdr.Frames // the input declares the length; pass it on
	sw, err := container.NewStreamWriter(w, ohdr)
	if err != nil {
		dec.Abort()
		dec.Close()
		enc.Abort()
		enc.Close()
		return TranscodeStats{}, err
	}

	// Stage 1: container packets into the decoder.
	readErr := make(chan error, 1)
	go func() { readErr <- feed(sr.Next, dec.Write, dec.Close, dec.Abort, nil) }()

	// Stage 2: decoded frames into the encoder; a dead encoder stops
	// the upstream decoder too.
	pumpErr := make(chan error, 1)
	go func() { pumpErr <- feed(dec.ReadFrame, enc.Write, enc.Close, enc.Abort, dec.Abort) }()

	// Stage 3: coded packets onto the output container.
	werr := drain(enc.ReadPacket, func(p container.Packet) error {
		if err := sw.WritePacket(p); err != nil {
			return fmt.Errorf("core: writing stream: %w", err)
		}
		return nil
	}, enc.Abort, dec.Abort)
	perr := <-pumpErr
	rerr := <-readErr
	stats := TranscodeStats{
		In:       hdr.Codec,
		Out:      ohdr.Codec,
		Frames:   sw.Count(),
		BytesIn:  sr.BytesRead(),
		BytesOut: sw.BytesWritten(),
	}
	return stats, firstError(werr, perr, rerr)
}

// TranscodeReader is the pull-flavored Transcode: it returns a reader
// producing the transcoded HDVB container, running the four-stage
// pipeline concurrently behind an io.Pipe. Reads see the first
// mid-pipeline failure as their error (io.EOF on success); Close tears
// the pipeline down early — the next pipe write fails, which aborts
// every stage, so an abandoned reader never leaks the goroutine. The
// shape HTTP handlers and io.Copy plumbing want.
func TranscodeReader(r io.Reader, target CodecID, kern kernel.Set, workers, window int, cfgFor func(container.Header) (codec.Config, error), col *obs.Collector) io.ReadCloser {
	pr, pw := io.Pipe()
	go func() {
		_, err := Transcode(r, pw, target, kern, workers, window, cfgFor, col)
		pw.CloseWithError(err) // nil = clean EOF for the reader
	}()
	return pr
}

// firstError picks the most informative error of a torn-down pipeline:
// the first real failure wins over the ErrAborted echoes the teardown
// leaves on the other stages.
func firstError(errs ...error) error {
	var aborted error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if err == stream.ErrAborted {
			if aborted == nil {
				aborted = err
			}
			continue
		}
		return err
	}
	return aborted
}
