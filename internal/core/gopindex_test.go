// The GOP tap on EncodeStream and the pull-flavored TranscodeReader:
// the tap's offsets must point exactly at the I packets that open each
// closed GOP (verified by re-walking the container), the tapped bytes
// must match the untapped ones, and TranscodeReader must reproduce
// Transcode while supporting early Close without leaking the pipeline.
package core_test

import (
	"bytes"
	"io"
	"testing"
	"time"

	"hdvideobench/internal/container"
	"hdvideobench/internal/core"
	"hdvideobench/internal/seqgen"
)

// TestEncodeStreamGOPTap encodes with the tap at several worker counts
// and cross-checks every recorded (offset, frame) pair against a fresh
// walk of the produced container.
func TestEncodeStreamGOPTap(t *testing.T) {
	const w, h, n, gop = 96, 80, 10, 3 // GOPs at frames 0,3,6,9
	cfg := streamCfg(w, h, gop)

	var plain bytes.Buffer
	if _, err := core.EncodeStream(&plain, core.MPEG2, cfg, 1, 0, n,
		frameFeeder(seqgen.BlueSky, w, h, n), nil, nil); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		type gopStart struct {
			offset int64
			frame  int
		}
		var taps []gopStart
		stats, err := core.EncodeStream(&buf, core.MPEG2, cfg, workers, 0, n,
			frameFeeder(seqgen.BlueSky, w, h, n),
			func(offset int64, frame int) { taps = append(taps, gopStart{offset, frame}) }, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), plain.Bytes()) {
			t.Fatalf("workers=%d: tapped container differs from untapped", workers)
		}

		// Re-derive the truth: walk the container, noting the byte offset
		// of every I packet header.
		sr, err := container.NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var want []gopStart
		for {
			at := sr.BytesRead()
			p, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if p.Type == container.FrameI {
				want = append(want, gopStart{at, p.DisplayIndex})
			}
		}
		if len(want) != (n+gop-1)/gop {
			t.Fatalf("stream has %d I packets, want %d", len(want), (n+gop-1)/gop)
		}
		if len(taps) != len(want) {
			t.Fatalf("workers=%d: tap fired %d times, want %d", workers, len(taps), len(want))
		}
		for i := range want {
			if taps[i] != want[i] {
				t.Fatalf("workers=%d: tap %d = %+v, want %+v", workers, i, taps[i], want[i])
			}
		}
		if stats.Bytes != int64(buf.Len()) {
			t.Fatalf("stats.Bytes=%d, buffer holds %d", stats.Bytes, buf.Len())
		}
	}
}

// TestTranscodeReaderMatchesTranscode: the pull flavor must produce the
// push flavor's bytes exactly.
func TestTranscodeReaderMatchesTranscode(t *testing.T) {
	const w, h, n, gop = 96, 80, 8, 4
	cfg := streamCfg(w, h, gop)
	var src bytes.Buffer
	if _, err := core.EncodeStream(&src, core.MPEG2, cfg, 1, 0, n,
		frameFeeder(seqgen.BlueSky, w, h, n), nil, nil); err != nil {
		t.Fatal(err)
	}
	var push bytes.Buffer
	if _, err := core.Transcode(bytes.NewReader(src.Bytes()), &push, core.H264, transcodeOpts(gop)); err != nil {
		t.Fatal(err)
	}
	rc := core.TranscodeReader(bytes.NewReader(src.Bytes()), core.H264, transcodeOpts(gop))
	pull, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("reading TranscodeReader: %v", err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pull, push.Bytes()) {
		t.Fatalf("TranscodeReader produced %d bytes differing from Transcode's %d", len(pull), push.Len())
	}
}

// TestTranscodeReaderEarlyClose: closing the reader mid-stream must tear
// the pipeline down promptly instead of deadlocking its stages.
func TestTranscodeReaderEarlyClose(t *testing.T) {
	const w, h, n, gop = 96, 80, 40, 2
	cfg := streamCfg(w, h, gop)
	var src bytes.Buffer
	if _, err := core.EncodeStream(&src, core.MPEG2, cfg, 1, 0, n,
		frameFeeder(seqgen.RushHour, w, h, n), nil, nil); err != nil {
		t.Fatal(err)
	}
	rc := core.TranscodeReader(bytes.NewReader(src.Bytes()), core.MPEG4, transcodeOpts(gop))
	if _, err := io.ReadFull(rc, make([]byte, 64)); err != nil {
		t.Fatalf("reading stream head: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- rc.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung: pipeline not torn down")
	}
}
