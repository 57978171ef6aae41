// Command vcodec is the single encode/decode front end for all three
// HD-VideoBench codecs — the role MPlayer/MEncoder play in the paper's
// Table IV (one command that selects the right codec and runs it with
// display output disabled).
//
// Encode raw I420 video to an HDVB stream:
//
//	vcodec -encode -codec h264 -w 720 -h 576 -i in.yuv -o out.hdvb -q 5
//
// Decode an HDVB stream back to raw I420 (use -o /dev/null to benchmark the
// decoder alone, like the paper's `-vo null -benchmark`):
//
//	vcodec -decode -i out.hdvb -o out.yuv -benchmark
//
// Both directions run the bounded-memory streaming engine: frames are
// read, coded and written incrementally with at most -window closed-GOP
// chunks in flight across -workers goroutines (default runtime.NumCPU();
// 1 = serial), so peak memory is O(window × gop) frames no matter how
// long the input is — a multi-hour sequence transcodes at the same
// footprint as a 25-frame one. Parallel encoding needs closed GOPs to
// chunk on, so pass -gop N (intra period) when encoding with more than
// one worker; output is byte-identical to the serial and batch paths
// either way. With -gop 0 (the paper's first-frame-only-intra default)
// pass -slices N instead: each frame is split into N independently
// coded macroblock-row slices that spread across the workers, at a
// small compression cost. Decoding picks the slice count up from the
// stream automatically. For a fixed -slices value the output bytes are
// identical at every -workers count. -wavefront additionally schedules
// the macroblocks inside each slice as a 2D wavefront during encoding,
// a zero-compression-cost axis that is also byte-identical on or off.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"hdvideobench"
)

func main() {
	var (
		encode    = flag.Bool("encode", false, "encode raw I420 input")
		decode    = flag.Bool("decode", false, "decode an HDVB stream")
		codecName = flag.String("codec", "h264", "codec: mpeg2, mpeg4, h264")
		inPath    = flag.String("i", "", "input file")
		outPath   = flag.String("o", "", "output file")
		width     = flag.Int("w", 0, "width (encode)")
		height    = flag.Int("h", 0, "height (encode)")
		q         = flag.Int("q", 5, "quantizer (MPEG scale)")
		frames    = flag.Int("frames", 0, "max frames (0 = all)")
		bframes   = flag.Int("bframes", 2, "consecutive B frames (0 disables)")
		refs      = flag.Int("refs", 4, "H.264 reference frames")
		gop       = flag.Int("gop", 0, "intra period / closed-GOP length (0 = first frame only)")
		slices    = flag.Int("slices", 1, "macroblock-row slices per frame (encode; parallelizes inside frames even with -gop 0, small quality cost)")
		wavefrnt  = flag.Bool("wavefront", false, "wavefront (2D) macroblock scheduling inside each slice (encode; bytes unchanged)")
		workers   = flag.Int("workers", runtime.NumCPU(), "worker-goroutine budget shared by GOP chunks, slices and wavefront rows (1 = serial)")
		window    = flag.Int("window", 0, "closed-GOP chunks in flight (0 = 2x workers); caps peak memory")
		simd      = flag.Bool("simd", false, "use the SIMD (SWAR) kernels")
		vlc       = flag.Bool("vlc", false, "H.264: use VLC entropy instead of CABAC")
		bench     = flag.Bool("benchmark", false, "print fps timing")
	)
	flag.Parse()

	switch {
	case *encode == *decode:
		fatalf("exactly one of -encode or -decode is required")
	case *inPath == "" || *outPath == "":
		fatalf("-i and -o are required")
	}

	in, err := os.Open(*inPath)
	if err != nil {
		fatalf("%v", err)
	}
	defer in.Close()
	out, err := os.Create(*outPath)
	if err != nil {
		fatalf("%v", err)
	}
	defer out.Close()
	bw := bufio.NewWriterSize(out, 1<<20)
	defer bw.Flush()

	if *encode {
		runEncode(bufio.NewReaderSize(in, 1<<20), bw, encodeParams{
			codec: *codecName, w: *width, h: *height, q: *q,
			frames: *frames, bframes: *bframes, refs: *refs,
			gop: *gop, slices: *slices, wavefront: *wavefrnt,
			workers: *workers, window: *window,
			simd: *simd, vlc: *vlc, bench: *bench,
		})
		return
	}
	runDecode(bufio.NewReaderSize(in, 1<<20), bw, *simd, *workers, *window, *bench)
}

type encodeParams struct {
	codec     string
	w, h, q   int
	frames    int
	bframes   int
	refs      int
	gop       int
	slices    int
	wavefront bool
	workers   int
	window    int
	simd, vlc bool
	bench     bool
}

func runEncode(in io.Reader, out io.Writer, p encodeParams) {
	c, err := hdvideobench.ParseCodec(p.codec)
	if err != nil {
		fatalf("%v", err)
	}
	if err := hdvideobench.ValidateResolution(p.w, p.h); err != nil {
		fatalf("%v", err)
	}
	opts := hdvideobench.EncoderOptions{
		Width: p.w, Height: p.h, Q: p.q,
		BFrames: p.bframes, Refs: p.refs, SIMD: p.simd,
		IntraPeriod: p.gop, Slices: p.slices, Wavefront: p.wavefront,
		Workers: p.workers, Window: p.window,
	}
	if p.bframes == 0 {
		opts.BFrames = -1
	}
	if p.vlc {
		opts.Entropy = hdvideobench.EntropyVLC
	}

	// Frames flow straight from the raw reader into the streaming
	// encoder — never more than the chunk window in memory.
	rr := hdvideobench.NewRawFrameReader(in, p.w, p.h)
	start := time.Now()
	stats, err := hdvideobench.EncodeStream(out, c, opts, 0, func() (*hdvideobench.Frame, error) {
		if p.frames > 0 && rr.Count() >= p.frames {
			return nil, io.EOF
		}
		f, err := rr.Next()
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.EOF // trailing partial frame: stop cleanly
		}
		return f, err
	})
	if err != nil {
		fatalf("encoding: %v", err)
	}
	elapsed := time.Since(start)
	if stats.Frames == 0 {
		fatalf("no complete frames in %dx%d input", p.w, p.h)
	}

	fmt.Fprintf(os.Stderr, "vcodec: encoded %d frames, %d bytes (%.1f kbit/s at 25 fps)\n",
		stats.Frames, stats.Bytes, float64(stats.Bytes*8*25)/float64(stats.Frames)/1000)
	if p.bench {
		fmt.Fprintf(os.Stderr, "vcodec: %.2f fps (%v)\n", float64(stats.Frames)/elapsed.Seconds(), elapsed)
	}
}

func runDecode(in io.Reader, out io.Writer, simd bool, workers, window int, bench bool) {
	start := time.Now()
	hdr, stats, err := hdvideobench.DecodeStream(in, simd, workers, window, func(f *hdvideobench.Frame) error {
		return f.WriteRaw(out)
	})
	if err != nil {
		fatalf("decoding: %v", err)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "vcodec: decoded %d frames of %s %dx%d\n",
		stats.Frames, hdr.Codec, hdr.Width, hdr.Height)
	if bench {
		fmt.Fprintf(os.Stderr, "vcodec: %.2f fps (%v)\n",
			float64(stats.Frames)/elapsed.Seconds(), elapsed)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vcodec: "+format+"\n", args...)
	os.Exit(1)
}
