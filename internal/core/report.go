package core

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"hdvideobench/internal/seqgen"
)

// FormatTableV renders RD results in the layout of the paper's Table V:
// one row per (resolution, sequence), PSNR and bitrate columns per codec.
func FormatTableV(results []RDResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "HD-VideoBench rate-distortion performance comparison (Table V)\n")
	fmt.Fprintf(&b, "%-10s %-16s", "Resolution", "Input")
	for _, c := range AllCodecs {
		fmt.Fprintf(&b, " | %8s PSNR  kbit/s", c)
	}
	b.WriteString("\n")

	type key struct {
		res string
		seq seqgen.Sequence
	}
	cells := map[key]map[CodecID]RDResult{}
	var keys []key
	for _, r := range results {
		k := key{r.Resolution.Name, r.Sequence}
		if cells[k] == nil {
			cells[k] = map[CodecID]RDResult{}
			keys = append(keys, k)
		}
		cells[k][r.Codec] = r
	}
	sort.SliceStable(keys, func(i, j int) bool {
		if keys[i].res != keys[j].res {
			return resOrder(keys[i].res) < resOrder(keys[j].res)
		}
		return keys[i].seq < keys[j].seq
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "%-10s %-16s", k.res, k.seq)
		for _, c := range AllCodecs {
			if r, ok := cells[k][c]; ok {
				fmt.Fprintf(&b, " | %8.2f dB %7.0f", r.PSNR, r.Kbps)
			} else {
				fmt.Fprintf(&b, " | %20s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func resOrder(name string) int {
	for i, r := range Resolutions {
		if r.Name == name {
			return i
		}
	}
	return len(Resolutions)
}

// FormatFigure1 renders speed results as the fps series of one Figure 1
// panel, with the 25 fps real-time line marked.
func FormatFigure1(results []SpeedResult, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (frames per second; real time = 25 fps)\n", title)
	fmt.Fprintf(&b, "%-10s", "")
	for _, c := range AllCodecs {
		fmt.Fprintf(&b, " %12s", c)
	}
	b.WriteString("\n")
	for _, res := range Resolutions {
		row := map[CodecID]float64{}
		found := false
		for _, r := range results {
			if r.Resolution.Name == res.Name {
				row[r.Codec] = r.FPS
				found = true
			}
		}
		if !found {
			continue
		}
		fmt.Fprintf(&b, "%-10s", res.Name)
		for _, c := range AllCodecs {
			if fps, ok := row[c]; ok {
				mark := " "
				if fps >= 25 {
					mark = "*" // meets real time
				}
				fmt.Fprintf(&b, " %10.2f%s ", fps, mark)
			} else {
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatScaling renders RunScalingMatrix results as one worker-count
// column per measured count: the Figure 1 scaling dimension. Each cell
// shows frames per second and, beyond one worker, the speed-up over the
// one-worker run.
func FormatScaling(results []SpeedResult, title string) string {
	var b strings.Builder
	note := ""
	if len(results) > 0 && results[0].Wavefront {
		note = "; wavefront MB scheduling on"
	}
	fmt.Fprintf(&b, "%s (frames per second by worker count; identical bitstreams per slice count%s)\n", title, note)

	var counts []int
	seen := map[int]bool{}
	for _, r := range results {
		if !seen[r.Workers] {
			seen[r.Workers] = true
			counts = append(counts, r.Workers)
		}
	}
	sort.Ints(counts)

	multiSlice := false
	{
		seen := map[int]bool{}
		for _, r := range results {
			seen[max(r.Slices, 1)] = true
		}
		multiSlice = len(seen) > 1
	}

	type key struct {
		res    string
		codec  CodecID
		slices int
	}
	cells := map[key]map[int]float64{}
	var keys []key
	for _, r := range results {
		k := key{r.Resolution.Name, r.Codec, max(r.Slices, 1)}
		if cells[k] == nil {
			cells[k] = map[int]float64{}
			keys = append(keys, k)
		}
		cells[k][r.Workers] = r.FPS
	}
	sort.SliceStable(keys, func(i, j int) bool {
		if keys[i].res != keys[j].res {
			return resOrder(keys[i].res) < resOrder(keys[j].res)
		}
		if keys[i].codec != keys[j].codec {
			return keys[i].codec < keys[j].codec
		}
		return keys[i].slices < keys[j].slices
	})

	label := func(k key) string {
		if multiSlice {
			return fmt.Sprintf("%-8s s=%d", k.codec, k.slices)
		}
		return fmt.Sprintf("%-8s", k.codec)
	}
	lw := 8
	if multiSlice {
		lw = 13
	}
	fmt.Fprintf(&b, "%-10s %-*s", "", lw, "")
	for _, wc := range counts {
		fmt.Fprintf(&b, " %14s", fmt.Sprintf("%d worker(s)", wc))
	}
	b.WriteString("\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%-10s %-*s", k.res, lw, label(k))
		base := cells[k][counts[0]]
		for i, wc := range counts {
			fps, ok := cells[k][wc]
			if !ok {
				fmt.Fprintf(&b, " %14s", "-")
				continue
			}
			if i == 0 || base == 0 {
				fmt.Fprintf(&b, " %10.2f    ", fps)
			} else {
				fmt.Fprintf(&b, " %8.2f %4.1fx", fps, fps/base)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ScalingRecord is one machine-readable scaling measurement — the JSON
// shape of a SpeedResult, stable for trend tracking.
type ScalingRecord struct {
	Direction  string  `json:"direction"`
	Resolution string  `json:"resolution"`
	Codec      string  `json:"codec"`
	Kernels    string  `json:"kernels"`
	Workers    int     `json:"workers"`
	Slices     int     `json:"slices"`
	Wavefront  bool    `json:"wavefront"`
	GOP        int     `json:"gop"` // effective intra period of this run
	FPS        float64 `json:"fps"`
	Frames     int     `json:"frames"`
}

// ScalingReport is the machine-readable envelope for RunScalingMatrix
// results: enough host and configuration metadata to compare runs across
// machines and commits (the BENCH_*.json trajectory). The coding
// configuration that can vary per measurement — workers, slices, and the
// effective intra period — lives on each record, so a report always
// describes exactly what ran.
type ScalingReport struct {
	Benchmark string          `json:"benchmark"`
	GoOS      string          `json:"goos"`
	GoArch    string          `json:"goarch"`
	NumCPU    int             `json:"num_cpu"`
	Frames    int             `json:"frames_per_sequence"`
	Q         int             `json:"q"`
	Repeats   int             `json:"repeats"`
	Results   []ScalingRecord `json:"results"`
}

// FormatScalingJSON renders scaling results as indented JSON, carrying
// the run configuration from o so a captured file is self-describing.
func FormatScalingJSON(o SuiteOptions, results []SpeedResult) ([]byte, error) {
	o = o.defaults()
	rep := ScalingReport{
		Benchmark: "hdvbench-scaling",
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Frames:    o.Frames,
		Q:         o.Q,
		Repeats:   max(o.Repeats, 1),
		Results:   make([]ScalingRecord, 0, len(results)),
	}
	for _, r := range results {
		rep.Results = append(rep.Results, ScalingRecord{
			Direction:  strings.ToLower(r.Direction.String()),
			Resolution: r.Resolution.Name,
			Codec:      r.Codec.String(),
			Kernels:    r.Kernels.String(),
			Workers:    r.Workers,
			Slices:     max(r.Slices, 1),
			Wavefront:  r.Wavefront,
			GOP:        r.GOP,
			FPS:        r.FPS,
			Frames:     r.Frames,
		})
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// GainResult summarizes compression gains at one resolution (the §VI
// narrative numbers: "MPEG-4 achieves 39.4%, 36.7% and 34.1% ...").
type GainResult struct {
	Resolution     string
	Mpeg4VsMpeg2   float64 // bitrate saving fraction
	H264VsMpeg2    float64
	H264VsMpeg4    float64
	PSNRDiffMpeg4  float64 // quality difference vs MPEG-2 (dB)
	PSNRDiffH264   float64
	SequencesCount int
}

// CompressionGains averages per-sequence bitrate savings per resolution.
func CompressionGains(results []RDResult) []GainResult {
	type key struct {
		res string
		seq seqgen.Sequence
	}
	cells := map[key]map[CodecID]RDResult{}
	for _, r := range results {
		k := key{r.Resolution.Name, r.Sequence}
		if cells[k] == nil {
			cells[k] = map[CodecID]RDResult{}
		}
		cells[k][r.Codec] = r
	}
	agg := map[string]*GainResult{}
	for k, m := range cells {
		m2, ok2 := m[MPEG2]
		m4, ok4 := m[MPEG4]
		h, okh := m[H264]
		if !ok2 || !ok4 || !okh {
			continue
		}
		g := agg[k.res]
		if g == nil {
			g = &GainResult{Resolution: k.res}
			agg[k.res] = g
		}
		g.Mpeg4VsMpeg2 += 1 - m4.Kbps/m2.Kbps
		g.H264VsMpeg2 += 1 - h.Kbps/m2.Kbps
		g.H264VsMpeg4 += 1 - h.Kbps/m4.Kbps
		g.PSNRDiffMpeg4 += m4.PSNR - m2.PSNR
		g.PSNRDiffH264 += h.PSNR - m2.PSNR
		g.SequencesCount++
	}
	var names []string
	for name := range agg {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if a, b := resOrder(names[i]), resOrder(names[j]); a != b {
			return a < b
		}
		return names[i] < names[j]
	})
	var out []GainResult
	for _, name := range names {
		g := agg[name]
		n := float64(g.SequencesCount)
		out = append(out, GainResult{
			Resolution:     g.Resolution,
			Mpeg4VsMpeg2:   g.Mpeg4VsMpeg2 / n,
			H264VsMpeg2:    g.H264VsMpeg2 / n,
			H264VsMpeg4:    g.H264VsMpeg4 / n,
			PSNRDiffMpeg4:  g.PSNRDiffMpeg4 / n,
			PSNRDiffH264:   g.PSNRDiffH264 / n,
			SequencesCount: g.SequencesCount,
		})
	}
	return out
}

// FormatGains renders the §VI compression-gain narrative.
func FormatGains(gains []GainResult) string {
	var b strings.Builder
	b.WriteString("Compression gains at equal quantizer (paper §VI)\n")
	for _, g := range gains {
		fmt.Fprintf(&b, "%-10s MPEG-4 vs MPEG-2: %5.1f%%   H.264 vs MPEG-2: %5.1f%%   H.264 vs MPEG-4: %5.1f%%\n",
			g.Resolution, 100*g.Mpeg4VsMpeg2, 100*g.H264VsMpeg2, 100*g.H264VsMpeg4)
	}
	return b.String()
}

// SpeedupResult pairs scalar and SIMD fps for the §VI speed-up numbers.
type SpeedupResult struct {
	Resolution string
	Codec      CodecID
	Direction  Direction
	Scalar     float64
	SIMD       float64
}

// Speedup returns SIMD/scalar.
func (s SpeedupResult) Speedup() float64 {
	if s.Scalar == 0 {
		return 0
	}
	return s.SIMD / s.Scalar
}

// Speedups joins scalar and SIMD speed runs.
func Speedups(scalar, simd []SpeedResult) []SpeedupResult {
	var out []SpeedupResult
	for _, s := range scalar {
		for _, w := range simd {
			if s.Resolution.Name == w.Resolution.Name && s.Codec == w.Codec && s.Direction == w.Direction {
				out = append(out, SpeedupResult{
					Resolution: s.Resolution.Name,
					Codec:      s.Codec,
					Direction:  s.Direction,
					Scalar:     s.FPS,
					SIMD:       w.FPS,
				})
			}
		}
	}
	return out
}

// FormatSpeedups renders the SIMD speed-up summary.
func FormatSpeedups(sp []SpeedupResult) string {
	var b strings.Builder
	b.WriteString("SIMD speed-ups (paper §VI: dec 2.13/1.88/1.55×, enc 2.46/2.42/2.31×)\n")
	for _, s := range sp {
		fmt.Fprintf(&b, "%-9s %-8s %-7s scalar %7.2f fps   SIMD %7.2f fps   speed-up %4.2fx\n",
			s.Direction, s.Codec, s.Resolution, s.Scalar, s.SIMD, s.Speedup())
	}
	return b.String()
}

// Describe summarizes the benchmark composition (Tables I-IV in prose).
func Describe() string {
	var b strings.Builder
	b.WriteString("HD-VideoBench composition\n")
	b.WriteString("  Applications (Table II):\n")
	b.WriteString("    MPEG-2 decode/encode  (libmpeg2 / FFmpeg-mpeg2 class)\n")
	b.WriteString("    MPEG-4 decode/encode  (Xvid ASP class)\n")
	b.WriteString("    H.264  decode/encode  (FFmpeg-h264 / x264 class)\n")
	b.WriteString("  Input sequences (Table III), 25 fps, 4:2:0, procedural equivalents:\n")
	for _, s := range seqgen.All {
		b.WriteString("    " + s.String() + "\n")
	}
	b.WriteString("  Resolutions: 720x576 (576p25), 1280x720 (720p25), 1920x1088 (1088p25)\n")
	b.WriteString("  Coding options (§IV / Table IV): constant QP=5 (H.264 QP=26 via Eq. 1),\n")
	b.WriteString("    GOP I-P-B-B (BFrames=2, adaptive placement disabled, first frame only intra),\n")
	b.WriteString("    EPZS motion estimation (MPEG-2/4), hexagon (H.264), search range 24,\n")
	b.WriteString("    multi-reference H.264 (4 refs), CABAC entropy\n")
	return b.String()
}
