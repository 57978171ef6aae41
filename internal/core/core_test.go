package core

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"hdvideobench/internal/seqgen"
)

// tiny matrix for CI-speed suite runs.
func tinyOptions() SuiteOptions {
	return SuiteOptions{
		Frames:      5,
		Resolutions: []Resolution{{"tiny", 96, 80}},
		Sequences:   []seqgen.Sequence{seqgen.RushHour, seqgen.PedestrianArea},
	}
}

func TestParseCodec(t *testing.T) {
	cases := map[string]CodecID{
		"mpeg2": MPEG2, "MPEG-2": MPEG2,
		"mpeg4": MPEG4, "xvid": MPEG4,
		"h264": H264, "x264": H264, "H.264": H264,
	}
	for name, want := range cases {
		got, err := ParseCodec(name)
		if err != nil || got != want {
			t.Errorf("ParseCodec(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseCodec("vp9"); err == nil {
		t.Error("unknown codec must error")
	}
}

func TestResolutionsMatchPaper(t *testing.T) {
	if len(Resolutions) != 3 {
		t.Fatalf("%d resolutions", len(Resolutions))
	}
	want := map[string][2]int{
		"576p25":  {720, 576},
		"720p25":  {1280, 720},
		"1088p25": {1920, 1088},
	}
	for _, r := range Resolutions {
		w, ok := want[r.Name]
		if !ok || r.Width != w[0] || r.Height != w[1] {
			t.Errorf("resolution %+v not in paper set", r)
		}
	}
}

func TestRunRDShape(t *testing.T) {
	results, err := RunRD(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*3 { // 2 sequences × 3 codecs
		t.Fatalf("got %d results", len(results))
	}
	byKey := map[string]RDResult{}
	for _, r := range results {
		byKey[r.Sequence.String()+"/"+r.Codec.String()] = r
		if r.PSNR < 25 || r.PSNR > 100 {
			t.Errorf("%v/%v: implausible PSNR %.2f", r.Sequence, r.Codec, r.PSNR)
		}
		if r.Kbps <= 0 {
			t.Errorf("%v/%v: no bitrate", r.Sequence, r.Codec)
		}
	}
	// The paper's headline ordering at equal quantizer:
	// bitrate(H.264) < bitrate(MPEG-4) < bitrate(MPEG-2).
	for _, seq := range []string{"rush_hour", "pedestrian_area"} {
		m2 := byKey[seq+"/MPEG-2"].Kbps
		m4 := byKey[seq+"/MPEG-4"].Kbps
		h := byKey[seq+"/H.264"].Kbps
		if !(h < m4 && m4 < m2) {
			t.Errorf("%s: bitrate ordering violated: H.264 %.0f, MPEG-4 %.0f, MPEG-2 %.0f",
				seq, h, m4, m2)
		}
	}
}

// TestFormatGainsNeedsAllCodecs: a run without all three codecs on a
// cell has no gains, and the report says so instead of ending at its
// heading.
func TestFormatGainsNeedsAllCodecs(t *testing.T) {
	res, _ := ResolutionByName("576p25")
	rs := []RDResult{
		{Codec: MPEG2, Sequence: seqgen.BlueSky, Resolution: res, Kbps: 900},
		{Codec: H264, Sequence: seqgen.BlueSky, Resolution: res, Kbps: 500},
	}
	out := FormatGains(CompressionGains(rs))
	if !strings.Contains(out, "gains need MPEG-2, MPEG-4 and H.264 on the same resolution and sequence") {
		t.Fatalf("report without a full cell:\n%s", out)
	}
	rs = append(rs, RDResult{Codec: MPEG4, Sequence: seqgen.BlueSky, Resolution: res, Kbps: 700})
	if out := FormatGains(CompressionGains(rs)); strings.Contains(out, "gains need") || !strings.Contains(out, "576p25") {
		t.Fatalf("report with a full cell:\n%s", out)
	}
}

func TestCompressionGainsPositive(t *testing.T) {
	results, err := RunRD(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	gains := CompressionGains(results)
	if len(gains) != 0 { // tiny resolution is not in the paper's list
		t.Logf("gains computed for custom resolutions: %v", gains)
	}
	// Recompute manually per sequence.
	for _, r := range results {
		if r.Codec != MPEG2 {
			continue
		}
		for _, r2 := range results {
			if r2.Sequence == r.Sequence && r2.Codec == H264 {
				if r2.Kbps >= r.Kbps {
					t.Errorf("%v: H.264 (%.0f kbps) not smaller than MPEG-2 (%.0f)",
						r.Sequence, r2.Kbps, r.Kbps)
				}
			}
		}
	}
}

func TestFormatTableV(t *testing.T) {
	results, err := RunRD(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTableV(results)
	for _, want := range []string{"MPEG-2", "MPEG-4", "H.264", "rush_hour", "PSNR"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table V output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSpeedDecode(t *testing.T) {
	// Ordering assertions need the full sequence mix (the skip-heavy
	// sequences alone make every decoder a memcpy) and a non-trivial size.
	o := SuiteOptions{
		Frames:      8,
		Resolutions: []Resolution{{"test", 160, 128}},
		Sequences:   seqgen.All,
	}
	// Wall-clock ordering is noisy when other test packages run in
	// parallel, so accept the Figure 1 ordering (MPEG-2 fastest, H.264
	// slowest) if any of three trials shows it.
	ok2, ok4 := false, false
	var last map[CodecID]float64
	for trial := 0; trial < 3 && !(ok2 && ok4); trial++ {
		results, err := RunSpeed(o, Decode)
		if err != nil {
			t.Fatal(err)
		}
		fps := map[CodecID]float64{}
		for _, r := range results {
			if r.FPS <= 0 {
				t.Fatalf("%v: fps %.2f", r.Codec, r.FPS)
			}
			fps[r.Codec] = r.FPS
		}
		last = fps
		if fps[MPEG2] >= fps[H264] {
			ok2 = true
		}
		if fps[MPEG4] >= fps[H264] {
			ok4 = true
		}
	}
	if !ok2 {
		t.Errorf("decode fps ordering violated in all trials: MPEG-2 %.1f < H.264 %.1f",
			last[MPEG2], last[H264])
	}
	if !ok4 {
		t.Errorf("decode fps ordering violated in all trials: MPEG-4 %.1f < H.264 %.1f",
			last[MPEG4], last[H264])
	}
}

func TestRunSpeedEncodeSlowerThanDecode(t *testing.T) {
	o := tinyOptions()
	o.Sequences = []seqgen.Sequence{seqgen.RushHour}
	enc, err := RunSpeed(o, Encode)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := RunSpeed(o, Decode)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range enc {
		for _, d := range dec {
			if e.Codec == d.Codec && e.Resolution.Name == d.Resolution.Name {
				if e.FPS > d.FPS {
					t.Errorf("%v: encode (%.1f fps) faster than decode (%.1f fps)",
						e.Codec, e.FPS, d.FPS)
				}
			}
		}
	}
}

// TestResolveWorkers pins the worker rule every call's gate is built
// with: negative selects runtime.NumCPU(), 0 and 1 one instance, and any
// other count is the budget as given.
func TestResolveWorkers(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{-1, runtime.NumCPU()},
		{0, 1},
		{1, 1},
		{3, 3},
		{runtime.NumCPU(), runtime.NumCPU()},
	} {
		if got := resolveWorkers(c.in); got != c.want {
			t.Errorf("resolveWorkers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSpeedupsJoin(t *testing.T) {
	scalar := []SpeedResult{{Resolution: Resolutions[0], Codec: MPEG2, Direction: Decode, FPS: 10}}
	simd := []SpeedResult{{Resolution: Resolutions[0], Codec: MPEG2, Direction: Decode, FPS: 15}}
	sp := Speedups(scalar, simd)
	if len(sp) != 1 || sp[0].Speedup() != 1.5 {
		t.Fatalf("speedups = %+v", sp)
	}
	out := FormatSpeedups(sp)
	if !strings.Contains(out, "1.50x") {
		t.Errorf("missing speedup in output:\n%s", out)
	}
}

func TestDescribe(t *testing.T) {
	out := Describe()
	for _, want := range []string{"blue_sky", "riverbed", "1920x1088", "I-P-B-B", "EPZS", "hexagon"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q", want)
		}
	}
}

func TestFormatFigure1(t *testing.T) {
	results := []SpeedResult{
		{Resolution: Resolutions[0], Codec: MPEG2, Direction: Decode, FPS: 88},
		{Resolution: Resolutions[0], Codec: H264, Direction: Decode, FPS: 19},
	}
	out := FormatFigure1(results, "Decoding Performance Scalar Version")
	if !strings.Contains(out, "88.00*") { // meets real time
		t.Errorf("missing real-time marker:\n%s", out)
	}
	if !strings.Contains(out, "19.00 ") {
		t.Errorf("missing below-real-time value:\n%s", out)
	}

	// Resolutions outside the paper's three get rows too, after the
	// paper's in table order.
	results = append([]SpeedResult{
		{Resolution: UHD2160, Codec: MPEG2, Direction: Decode, FPS: 3},
		{Resolution: Resolutions[2], Codec: MPEG2, Direction: Decode, FPS: 9},
	}, results...)
	lines := strings.Split(strings.TrimSuffix(FormatFigure1(results, "x"), "\n"), "\n")
	var rows []string
	for _, l := range lines[2:] {
		rows = append(rows, strings.Fields(l)[0])
	}
	if want := []string{"576p25", "1088p25", "2160p25"}; !slices.Equal(rows, want) {
		t.Errorf("rows %v, want %v:\n%s", rows, want, strings.Join(lines, "\n"))
	}
}
