package container

import (
	"fmt"
	"io"
)

// StreamWriter is the incremental container writer for live transport:
// one packet at a time, nothing buffered beyond the packet being
// written, byte and packet accounting for stats, the GOP index of the
// bytes written so far, and write-through
// flushing when the destination supports it — an http.ResponseWriter's
// Flush pushes each packet onto the wire (chunked transfer), so a client
// can start decoding before the encoder has finished the sequence.
//
// Flush-through triggers only for error-less Flush() implementations
// (the net/http flavor). An *bufio.Writer's Flush() error is left alone
// on purpose: batch file output should keep its batching, and callers
// that want eager flushing there can call Flush themselves.
type StreamWriter struct {
	cw   countingWriter
	w    *Writer
	gops GOPTracker
	idx  []GOPIndexEntry

	flush    func() error
	flushErr func() error // explicit Flush() for error-returning flushers
}

// NewStreamWriter writes the stream header to w and returns the
// incremental writer. As with NewWriter, hdr.Frames may be zero when the
// length is unknown upfront (readers then consume until EOF).
func NewStreamWriter(w io.Writer, hdr Header) (*StreamWriter, error) {
	sw := &StreamWriter{cw: countingWriter{w: w}}
	switch f := w.(type) {
	case interface{ Flush() }:
		fl := f
		sw.flush = func() error { fl.Flush(); return nil }
	case interface{ Flush() error }:
		sw.flushErr = f.Flush
	}
	cw, err := NewWriter(&sw.cw, hdr)
	if err != nil {
		return nil, err
	}
	sw.w = cw
	return sw, nil
}

// WritePacket appends one coded frame, indexing it when it opens a
// closed GOP, and, when the destination is an error-less flusher
// (http.ResponseWriter), flushes it onto the wire.
func (sw *StreamWriter) WritePacket(p Packet) error {
	at := sw.cw.n
	if err := sw.w.WritePacket(p); err != nil {
		return err
	}
	if sw.gops.Opens(p) {
		sw.idx = append(sw.idx, GOPIndexEntry{Offset: at, Frame: p.DisplayIndex})
	}
	if sw.flush != nil {
		return sw.flush()
	}
	return nil
}

// Flush forces any transport-level buffer out, whichever Flush flavor
// the destination implements. It is a no-op for plain writers.
func (sw *StreamWriter) Flush() error {
	switch {
	case sw.flush != nil:
		return sw.flush()
	case sw.flushErr != nil:
		return sw.flushErr()
	}
	return nil
}

// Count returns the number of packets written.
func (sw *StreamWriter) Count() int { return sw.w.Count() }

// BytesWritten returns the total container bytes produced, header
// included.
func (sw *StreamWriter) BytesWritten() int64 { return sw.cw.n }

// GOPs returns the index entry of every closed GOP written so far, in
// stream order: the byte offset of its I packet and that packet's
// display index.
func (sw *StreamWriter) GOPs() []GOPIndexEntry { return sw.idx }

// StreamReader is the incremental container reader: it hands packets out
// one at a time — never slurping the stream — and uses the header's
// frame count when present to distinguish a clean end from a truncated
// transfer, and to stop without over-reading a stream that has trailing
// data behind it.
type StreamReader struct {
	cr   countingReader
	r    *Reader
	read int
	err  error
}

// NewStreamReader parses the stream header from r.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	sr := &StreamReader{cr: countingReader{r: r}}
	cr, err := NewReader(&sr.cr)
	if err != nil {
		return nil, err
	}
	sr.r = cr
	return sr, nil
}

// Header returns the parsed stream header.
func (sr *StreamReader) Header() Header { return sr.r.Header() }

// Next returns the next coded frame. io.EOF signals the clean end of the
// stream: after Header().Frames packets when the count is declared
// (without touching any bytes beyond them), or at the underlying EOF
// otherwise. A declared-length stream that ends early fails with
// io.ErrUnexpectedEOF instead of masquerading as complete. Errors are
// sticky.
func (sr *StreamReader) Next() (Packet, error) {
	if sr.err != nil {
		return Packet{}, sr.err
	}
	if n := sr.Header().Frames; n > 0 && sr.read >= n {
		sr.err = io.EOF
		return Packet{}, sr.err
	}
	p, err := sr.r.ReadPacket()
	if err != nil {
		if err == io.EOF && sr.Header().Frames > 0 {
			err = fmt.Errorf("container: stream truncated after %d of %d packets: %w",
				sr.read, sr.Header().Frames, io.ErrUnexpectedEOF)
		}
		sr.err = err
		return Packet{}, err
	}
	sr.read++
	return p, nil
}

// Count returns the number of packets delivered so far.
func (sr *StreamReader) Count() int { return sr.read }

// BytesRead returns the total container bytes consumed, header included.
func (sr *StreamReader) BytesRead() int64 { return sr.cr.n }

// countingWriter / countingReader thread byte totals through the fixed
// Writer/Reader so streaming stats come for free.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}
