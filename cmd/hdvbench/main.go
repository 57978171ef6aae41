// Command hdvbench is the HD-VideoBench front end: it runs the benchmark
// matrix and regenerates the paper's evaluation artifacts.
//
//	hdvbench -describe             # Tables I-IV: suite composition
//	hdvbench -table5               # Table V: PSNR + bitrate matrix
//	hdvbench -fig1a                # Figure 1(a): decode fps, scalar
//	hdvbench -fig1b                # Figure 1(b): decode fps, SIMD
//	hdvbench -fig1c                # Figure 1(c): encode fps, scalar
//	hdvbench -fig1d                # Figure 1(d): encode fps, SIMD
//	hdvbench -summary              # §VI: compression gains + SIMD speed-ups
//
// Common flags: -frames N (default 25; the paper uses 100), -q N
// (quantizer, default 5), -res 576p25,720p25,1088p25, -seqs a,b,
// -codecs mpeg2,mpeg4,h264.
//
// Profiling: -cpuprofile f / -memprofile f write pprof profiles of the
// selected run (CPU for the whole run, heap at exit), so performance work
// on the codecs can be driven by `go tool pprof` instead of guesswork.
//
// Parallelism flags: -workers N runs the codecs' GOP-parallel pipeline
// on N goroutines (default runtime.NumCPU(); 1 = one codec instance);
// -gop N sets the intra period that defines the closed GOP chunks
// (default 0 = first frame only, the paper's setting); -slices N splits
// every frame into N independently coded macroblock-row slices, the
// axis that parallelizes encode and decode even at -gop 0 (default 1).
// Output streams are byte-identical for every -workers value at a fixed
// -slices count. -wavefront adds the third axis: 2D wavefront scheduling
// of the macroblocks inside every slice, which parallelizes encode even
// at -gop 0 -slices 1 with zero compression cost — the bitstream is
// byte-identical with the flag on or off.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hdvideobench"
)

func main() {
	var (
		describe = flag.Bool("describe", false, "print the suite composition (Tables I-IV)")
		table5   = flag.Bool("table5", false, "run the rate-distortion matrix (Table V)")
		fig1a    = flag.Bool("fig1a", false, "decode fps, scalar kernels (Figure 1a)")
		fig1b    = flag.Bool("fig1b", false, "decode fps, SIMD kernels (Figure 1b)")
		fig1c    = flag.Bool("fig1c", false, "encode fps, scalar kernels (Figure 1c)")
		fig1d    = flag.Bool("fig1d", false, "encode fps, SIMD kernels (Figure 1d)")
		ladder   = flag.String("ladder", "", "rendition-ladder encode, e.g. 240p,576p@1200,720p: decode once, share the top rung's motion analysis down the ladder")
		kbps     = flag.Int("kbps", 0, "with -ladder: default bitrate target for rungs without an explicit @kbps (0 = constant-Q)")
		summary  = flag.Bool("summary", false, "compression gains and SIMD speed-ups (§VI)")
		frames   = flag.Int("frames", 25, "frames per sequence (paper: 100)")
		repeats  = flag.Int("repeats", 3, "timing repetitions, fastest kept (paper: 5 runs)")
		q        = flag.Int("q", 5, "quantizer, MPEG scale 1..31 (paper: 5)")
		gop      = flag.Int("gop", 0, "intra period / closed-GOP length (0 = first frame only)")
		slices   = flag.Int("slices", 0, "macroblock-row slices per frame (0 = 1)")
		wavefrnt = flag.Bool("wavefront", false, "wavefront (2D) macroblock scheduling inside each slice (encode; bytes unchanged)")
		workers  = flag.Int("workers", runtime.NumCPU(), "worker-goroutine budget shared by GOP chunks, slices and wavefront rows (1 = serial)")
		resList  = flag.String("res", "", "comma-separated resolutions, up to 2160p25 (default: the paper's three)")
		seqList  = flag.String("seqs", "", "comma-separated sequences, incl. sport_pan/scene_cut (default: the paper's four)")
		cdcList  = flag.String("codecs", "", "comma-separated codecs (default: all three)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	// Profiling hooks: perf PRs should be driven by profiles, not
	// guesswork — `hdvbench -fig1c -cpuprofile cpu.pb.gz` then
	// `go tool pprof cpu.pb.gz`.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// Report failures without os.Exit: exiting here would skip the
		// still-pending StopCPUProfile defer and truncate the CPU profile.
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hdvbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "hdvbench: memprofile: %v\n", err)
			}
		}()
	}

	opts := hdvideobench.SuiteOptions{
		Frames: *frames, Q: *q, Repeats: *repeats,
		IntraPeriod: *gop, Workers: *workers, Slices: *slices,
		Wavefront: *wavefrnt,
	}
	if *resList != "" {
		for _, name := range strings.Split(*resList, ",") {
			r, err := hdvideobench.ResolutionByName(name)
			if err != nil {
				fatalf("%v", err)
			}
			opts.Resolutions = append(opts.Resolutions, r)
		}
	}
	if *seqList != "" {
		for _, name := range strings.Split(*seqList, ",") {
			s, err := hdvideobench.ParseSequence(name)
			if err != nil {
				fatalf("%v", err)
			}
			opts.Sequences = append(opts.Sequences, s)
		}
	}
	if *cdcList != "" {
		for _, name := range strings.Split(*cdcList, ",") {
			c, err := hdvideobench.ParseCodec(name)
			if err != nil {
				fatalf("%v", err)
			}
			opts.Codecs = append(opts.Codecs, c)
		}
	}

	ran := false
	if *describe {
		fmt.Print(hdvideobench.Describe())
		ran = true
	}
	if *table5 {
		rs, err := hdvideobench.RunTableV(opts)
		if err != nil {
			fatalf("table5: %v", err)
		}
		fmt.Print(hdvideobench.FormatTableV(rs))
		fmt.Print(hdvideobench.Gains(rs))
		ran = true
	}
	runFig := func(simd, encode bool, title string) {
		o := opts
		o.SIMD = simd
		rs, err := hdvideobench.RunFigure1(o, encode)
		if err != nil {
			fatalf("%s: %v", title, err)
		}
		fmt.Print(hdvideobench.FormatFigure1(rs, title))
		ran = true
	}
	if *fig1a {
		runFig(false, false, "Figure 1(a): Decoding Performance Scalar Version")
	}
	if *fig1b {
		runFig(true, false, "Figure 1(b): Decoding Performance with SIMD Optimizations")
	}
	if *fig1c {
		runFig(false, true, "Figure 1(c): Encoding Performance Scalar Version")
	}
	if *fig1d {
		runFig(true, true, "Figure 1(d): Encoding Performance with SIMD Optimizations")
	}
	if *ladder != "" {
		runLadder(opts, *ladder, *kbps, *frames, *q, *gop, *slices, *wavefrnt, *workers)
		ran = true
	}
	if *summary {
		rs, err := hdvideobench.RunTableV(opts)
		if err != nil {
			fatalf("summary: %v", err)
		}
		fmt.Print(hdvideobench.Gains(rs))
		for _, enc := range []bool{false, true} {
			oS := opts
			oS.SIMD = false
			scalar, err := hdvideobench.RunFigure1(oS, enc)
			if err != nil {
				fatalf("summary: %v", err)
			}
			oW := opts
			oW.SIMD = true
			simd, err := hdvideobench.RunFigure1(oW, enc)
			if err != nil {
				fatalf("summary: %v", err)
			}
			fmt.Print(hdvideobench.FormatSpeedupReport(scalar, simd))
		}
		ran = true
	}
	if !ran {
		fmt.Print(hdvideobench.Describe())
		fmt.Println("\nrun with -describe, -table5, -fig1a..-fig1d, -summary or -ladder; see -help")
	}
}

// runLadder drives the one-mezzanine-N-renditions path: generate the
// mezzanine once (first -res entry, default 720p25; first -seqs entry,
// default blue_sky), encode every rung with the top rung's motion
// analysis shared down the ladder, and report per-rung size, achieved
// bitrate, and PSNR against the downscaled mezzanine.
func runLadder(opts hdvideobench.SuiteOptions, spec string, defKbps, nFrames, q, gop, slices int, wavefront bool, workers int) {
	mezz := hdvideobench.Resolutions[1] // 720p25
	if len(opts.Resolutions) > 0 {
		mezz = opts.Resolutions[0]
	}
	seq := hdvideobench.BlueSky
	if len(opts.Sequences) > 0 {
		seq = opts.Sequences[0]
	}
	codecs := opts.Codecs
	if len(codecs) == 0 {
		codecs = []hdvideobench.Codec{hdvideobench.MPEG2, hdvideobench.MPEG4, hdvideobench.H264}
	}
	rungs, err := hdvideobench.ParseLadder(spec, mezz.Width, mezz.Height)
	if err != nil {
		fatalf("ladder: %v", err)
	}
	if defKbps > 0 {
		for i := range rungs {
			if rungs[i].Kbps == 0 {
				rungs[i].Kbps = defKbps
			}
		}
	}
	frames := hdvideobench.NewSequence(seq, mezz.Width, mezz.Height).Generate(nFrames)
	for _, c := range codecs {
		eo := hdvideobench.EncoderOptions{
			Width: mezz.Width, Height: mezz.Height, Q: q,
			IntraPeriod: gop, Slices: slices, Wavefront: wavefront,
			Workers: workers,
		}
		start := time.Now()
		rends, err := hdvideobench.EncodeLadder(c, eo, frames, rungs)
		if err != nil {
			fatalf("ladder: %v", err)
		}
		wall := time.Since(start)
		fmt.Printf("Ladder %v: %s mezzanine, %v, %d frames, %.2fs wall\n",
			c, mezz.Name, seq, len(frames), wall.Seconds())
		fmt.Printf("  %-8s %-10s %8s %10s %8s %8s\n",
			"rung", "geometry", "target", "bytes", "kbps", "psnr")
		for _, r := range rends {
			bytes := 0
			for _, p := range r.Packets {
				bytes += len(p.Payload)
			}
			dec, err := hdvideobench.NewDecoder(r.Header, false)
			if err != nil {
				fatalf("ladder: %v", err)
			}
			out, err := hdvideobench.DecodePackets(dec, r.Packets)
			if err != nil {
				fatalf("ladder rung %s: %v", r.Rung.Name, err)
			}
			psnr := 0.0
			for i := range out {
				ref := frames[i]
				if r.Rung.Width != mezz.Width || r.Rung.Height != mezz.Height {
					ref = hdvideobench.DownscaleFrame(ref, r.Rung.Width, r.Rung.Height)
				}
				psnr += hdvideobench.PSNR(ref, out[i])
			}
			psnr /= float64(len(out))
			fps := float64(r.Header.FPSNum) / float64(r.Header.FPSDen)
			achieved := float64(bytes) * 8 * fps / float64(len(frames)) / 1000
			target := "const-q"
			if r.Rung.Kbps > 0 {
				target = fmt.Sprintf("%d", r.Rung.Kbps)
			}
			fmt.Printf("  %-8s %-10s %8s %10d %8.0f %8.2f\n",
				r.Rung.Name, fmt.Sprintf("%dx%d", r.Rung.Width, r.Rung.Height),
				target, bytes, achieved, psnr)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hdvbench: "+format+"\n", args...)
	os.Exit(1)
}
