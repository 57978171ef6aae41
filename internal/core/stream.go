package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"

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
// workers selects runtime.NumCPU(). Output is byte-identical to
// EncodeSequence for every worker count and window. col, when non-nil,
// receives the pipeline's self-measurements (chunk encode time, queue
// depth, drain stalls, slice-gate and wavefront waits); nil disables
// collection. The stream is a call of its own, torn down by its Abort
// or its first failure.
func NewStreamEncoder(id CodecID, cfg codec.Config, workers, window int, col *obs.Collector) (*stream.Encoder, error) {
	ctx, cancel := context.WithCancelCause(context.Background())
	return stream.NewEncoder(ctx, cancel, encoderFactory(id, cfg), cfg.IntraPeriod, workerGate(workers, col), window)
}

// workerGate builds the token bank of one call: every stage of the call
// is constructed on it, so together they keep to `workers` codec
// goroutines.
func workerGate(workers int, col *obs.Collector) *pipeline.SliceGate {
	return pipeline.NewSliceGate(resolveWorkers(workers)).Observe(col)
}

// resolveWorkers maps a worker option onto the budget a call runs with:
// negative selects runtime.NumCPU(), 0 and 1 the single-instance mode.
func resolveWorkers(workers int) int {
	if workers < 0 {
		return runtime.NumCPU()
	}
	return max(workers, 1)
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
	// GOPs indexes the closed GOPs of a written container, read off the
	// bytes as they were written (container.StreamWriter). DecodeStream
	// leaves it nil.
	GOPs []container.GOPIndexEntry
}

// Teardown: every call below builds all its stages on one context,
// cancelled with a cause by the first failure anywhere — a source, a
// stage, a sink. A cancel reaches every stage, each stage reports a
// teardown by returning the context's cause, and a later cancel keeps
// the first cause, so the call returns context.Cause: the first failure
// wins by construction.

// stage is the writer side of a windowed stage (a stream.Encoder or
// stream.Decoder).
type stage[T any] interface {
	Write(T) error
	Close() error
}

// feed starts the writer half of a windowed stage on a goroutine of its
// own and returns the group to wait on for it: items move from next into
// the stage until io.EOF, then the stage is closed. Any failure cancels
// the call — a panic too: a serial stage runs its codec on this
// goroutine, and a codec panic must fail the call, not the process.
func feed[T any](next func() (T, error), s stage[T], cancel context.CancelCauseFunc) *sync.WaitGroup {
	var fed sync.WaitGroup
	fed.Add(1)
	go func() {
		defer fed.Done()
		defer func() {
			if r := recover(); r != nil {
				cancel(fmt.Errorf("core: pipeline stage panic: %v\n%s", r, debug.Stack()))
				s.Close()
			}
		}()
		for {
			v, err := next()
			if err == io.EOF {
				break
			}
			if err == nil {
				err = s.Write(v)
			}
			if err != nil {
				cancel(err)
				break
			}
		}
		if err := s.Close(); err != nil {
			cancel(err)
		}
	}()
	return &fed
}

// drain is the reader half: it moves a stage's output into a sink until
// io.EOF, and a failure of either cancels the call so blocked writers
// unblock.
func drain[T any](next func() (T, error), sink func(T) error, cancel context.CancelCauseFunc) {
	for {
		v, err := next()
		if err == io.EOF {
			return
		}
		if err == nil {
			err = sink(v)
		}
		if err != nil {
			cancel(err)
			return
		}
	}
}

// sliceNext yields the items of in, then io.EOF.
func sliceNext[T any](in []T) func() (T, error) {
	i := 0
	return func() (T, error) {
		if i == len(in) {
			var zero T
			return zero, io.EOF
		}
		i++
		return in[i-1], nil
	}
}

// EncodeStream pulls display-order frames from next until it returns
// io.EOF, encodes them on the streaming engine — encodeRungs' one-rung
// call — and writes the HDVB container to w incrementally: peak memory
// stays O(window × GOP) regardless of sequence length. Any error from
// next, the codec, or w tears the whole pipeline down and is returned.
// The stats index the closed GOPs of the bytes written (GOPs).
//
// frames is the declared sequence length for the container header: when
// the caller knows it upfront (a server encoding an N-frame request),
// declaring it lets readers distinguish a truncated transfer from a
// complete stream — per-packet flushing means a dropped stream ends at
// a packet boundary, where an undeclared-length container looks
// perfectly complete. Pass 0 when the length is unknown (reading a file
// of frames until EOF); readers then consume until EOF, matching the
// header of a container written from EncodeSequenceParallel byte for
// byte.
func EncodeStream(w io.Writer, id CodecID, cfg codec.Config, workers, window, frames int, next func() (*frame.Frame, error), col *obs.Collector) (StreamStats, error) {
	sink := &streamSink{w: w, frames: frames}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	err := encodeRungs(ctx, cancel, workerGate(workers, col), factories(id), window, rungOut{cfg: cfg, sink: sink}, nil, next)
	return sink.stats(), err
}

// DecodeStream reads an HDVB container from r incrementally, decodes it
// with the streaming engine, and hands each display-order frame to
// yield. An error from yield tears the pipeline down and is returned.
// The stats carry no GOP index.
func DecodeStream(r io.Reader, kern kernel.Set, workers, window int, yield func(*frame.Frame) error) (container.Header, StreamStats, error) {
	sr, err := container.NewStreamReader(r)
	if err != nil {
		return container.Header{}, StreamStats{}, err
	}
	hdr := sr.Header()
	frames := 0
	err = decode(decoderFactory(hdr, kern), workerGate(workers, nil), window, sr.Next, func(f *frame.Frame) error {
		if err := yield(f); err != nil {
			return err
		}
		frames++
		return nil
	})
	return hdr, StreamStats{Frames: frames, Bytes: sr.BytesRead()}, err
}

// decode is the one decode engine; DecodePacketsParallel and
// DecodeStream are its calls. Packets pulled from next feed a
// stream.Decoder built on gate, and its display-order frames drain into
// yield, all on one context, so the first failure — next, the codec or
// yield — stops the call and is what it returns.
func decode(newDec pipeline.DecoderFactory, gate *pipeline.SliceGate, window int, next func() (container.Packet, error), yield func(*frame.Frame) error) error {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	dec, err := stream.NewDecoder(ctx, cancel, newDec, gate, window)
	if err != nil {
		return err
	}
	fed := feed(next, dec, cancel)
	drain(dec.ReadFrame, yield, cancel)
	fed.Wait()
	return context.Cause(ctx)
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
// opts are the target coding options: zero Width/Height copy the
// input's dimensions, the input's frame rate carries over, and opts.SIMD
// selects the kernels of both codec stages. Those two stages share one
// budget of opts.Workers tokens, so the decode side gets what the encode
// side is not using and the whole transcode keeps to Workers codec
// goroutines; at Workers <= 1 the two stages take turns on one token.
func Transcode(r io.Reader, w io.Writer, target CodecID, opts EncoderOptions) (TranscodeStats, error) {
	sr, err := container.NewStreamReader(r)
	if err != nil {
		return TranscodeStats{}, err
	}
	hdr := sr.Header()
	if opts.Width == 0 {
		opts.Width = hdr.Width
	}
	if opts.Height == 0 {
		opts.Height = hdr.Height
	}
	cfg, err := CodecConfig(opts)
	if err != nil {
		return TranscodeStats{}, err
	}
	if hdr.FPSNum > 0 && hdr.FPSDen > 0 {
		cfg.FPSNum, cfg.FPSDen = hdr.FPSNum, hdr.FPSDen
	}
	return transcode(sr, w, decoderFactory(hdr, cfg.Kernels), factories(target), cfg, workerGate(opts.Workers, opts.Collector), opts.Window)
}

// transcode is Transcode from the point where the codecs are chosen: a
// decode stage fed from sr is the source of encodeRungs' one rung, both
// built on one context and gate.
func transcode(sr *container.StreamReader, w io.Writer, newDec pipeline.DecoderFactory, newEnc func(codec.Config) pipeline.EncoderFactory, cfg codec.Config, gate *pipeline.SliceGate, window int) (TranscodeStats, error) {
	hdr := sr.Header()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	dec, err := stream.NewDecoder(ctx, cancel, newDec, gate, window)
	if err != nil {
		return TranscodeStats{}, err
	}
	fed := feed(sr.Next, dec, cancel)
	out := &streamSink{w: w, frames: hdr.Frames} // the input declares the length; pass it on
	err = encodeRungs(ctx, cancel, gate, newEnc, window, rungOut{cfg: cfg, sink: out}, nil, dec.ReadFrame)
	fed.Wait()
	st := out.stats()
	return TranscodeStats{In: hdr.Codec, Out: out.codec, Frames: st.Frames, BytesIn: sr.BytesRead(), BytesOut: st.Bytes}, err
}
