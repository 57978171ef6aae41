package core

import (
	"fmt"
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
// panel, with the 25 fps real-time line marked: one row per measured
// resolution, the paper's three in table order and any other after them
// in the order it was measured.
func FormatFigure1(results []SpeedResult, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (frames per second; real time = 25 fps)\n", title)
	fmt.Fprintf(&b, "%-10s", "")
	for _, c := range AllCodecs {
		fmt.Fprintf(&b, " %12s", c)
	}
	b.WriteString("\n")
	rows := map[string]map[CodecID]float64{}
	var names []string
	for _, r := range results {
		name := r.Resolution.Name
		if rows[name] == nil {
			rows[name] = map[CodecID]float64{}
			names = append(names, name)
		}
		rows[name][r.Codec] = r.FPS
	}
	sort.SliceStable(names, func(i, j int) bool { return resOrder(names[i]) < resOrder(names[j]) })
	for _, name := range names {
		fmt.Fprintf(&b, "%-10s", name)
		for _, c := range AllCodecs {
			if fps, ok := rows[name][c]; ok {
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

// FormatGains renders the §VI compression-gain narrative, or says why
// there is none: a gain compares all three codecs on one cell.
func FormatGains(gains []GainResult) string {
	var b strings.Builder
	b.WriteString("Compression gains at equal quantizer (paper §VI)\n")
	if len(gains) == 0 {
		b.WriteString("(none: gains need MPEG-2, MPEG-4 and H.264 on the same resolution and sequence)\n")
	}
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
