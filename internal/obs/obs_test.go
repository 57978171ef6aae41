package obs

import (
	"math"
	"strings"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("reqs_total", "Requests by method.", "method")
	reqs.With("GET").Add(3)
	reqs.With("POST") // touched but never incremented: must expose as 0
	r.Gauge("active", "In-flight requests.").With().Set(2)
	r.Counter("plain_total", "Unlabeled counter.") // auto-exposes 0

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP reqs_total Requests by method.
# TYPE reqs_total counter
reqs_total{method="GET"} 3
reqs_total{method="POST"} 0
# HELP active In-flight requests.
# TYPE active gauge
active 2
# HELP plain_total Unlabeled counter.
# TYPE plain_total counter
plain_total 0
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10}, "path")
	s := h.With("/x")
	s.Observe(0.05) // le 0.1
	s.Observe(0.5)  // le 1
	s.Observe(0.1)  // boundary: le is inclusive, belongs to 0.1
	s.Observe(99)   // +Inf only

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{path="/x",le="0.1"} 2
lat_seconds_bucket{path="/x",le="1"} 3
lat_seconds_bucket{path="/x",le="10"} 3
lat_seconds_bucket{path="/x",le="+Inf"} 4
lat_seconds_sum{path="/x"} 99.65
lat_seconds_count{path="/x"} 4
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
	if got := s.Count(); got != 4 {
		t.Errorf("Count() = %d, want 4", got)
	}
	if got := s.Sum(); math.Abs(got-99.65) > 1e-9 {
		t.Errorf("Sum() = %v, want 99.65", got)
	}
}

func TestLabelAndHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "Help with \\ backslash\nand newline.", "p").
		With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP esc_total Help with \\ backslash\nand newline.
# TYPE esc_total counter
esc_total{p="a\"b\\c\nd"} 1
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
	// And it must round-trip through our own parser.
	fams, err := ParseText([]byte(sb.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if fams[0].Help != "Help with \\ backslash\nand newline." {
		t.Errorf("help round-trip: %q", fams[0].Help)
	}
	if v, _ := fams[0].Samples[0].Get("p"); v != "a\"b\\c\nd" {
		t.Errorf("label round-trip: %q", v)
	}
}

func TestFuncMetricsReadAtScrape(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	r.CounterFunc("fn_total", "Scrape-time counter.", func() float64 { return v })
	r.GaugeFunc("fn_gauge", "Scrape-time gauge.", func() float64 { return -v })
	var sb strings.Builder
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), "fn_total 7\n") || !strings.Contains(sb.String(), "fn_gauge -7\n") {
		t.Fatalf("scrape 1: %s", sb.String())
	}
	v = 9
	sb.Reset()
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), "fn_total 9\n") {
		t.Fatalf("scrape 2 did not re-evaluate: %s", sb.String())
	}
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "x.")
	expectPanic("duplicate name", func() { r.Counter("dup_total", "y.") })
	expectPanic("bad metric name", func() { r.Counter("0bad", "x.") })
	expectPanic("bad label name", func() { r.Counter("ok_total", "x.", "0bad") })
	expectPanic("reserved le", func() { r.Histogram("h_ok", "x.", nil, "le") })
	expectPanic("unsorted buckets", func() { r.Histogram("h_bad", "x.", []float64{1, 1}) })
	v := r.Counter("lbl_total", "x.", "a", "b")
	expectPanic("label arity", func() { v.With("only-one") })
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var col *Collector
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	col.ChunkQueued()
	col.ChunkDone()
	col.ObserveChunkEncode(0)
	col.ObserveDrainStall(0)
	col.ObserveGateWait(0)
	col.SliceSpawned()
	col.SliceInline()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil cells reported nonzero")
	}
	// Partially populated collector: nil fields must also be safe.
	part := &Collector{}
	part.ChunkQueued()
	part.ObserveChunkEncode(0)
	part.SliceSpawned()
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("neg_total", "x.").With()
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter after negative add = %v, want 5", c.Value())
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

// TestWithExistingSeriesDoesNotAllocate: resolving a series that exists
// costs no allocation (the serving tier calls With twice per request),
// and the lookup still finds the one series each label set names.
func TestWithExistingSeriesDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", "Request time.", nil, "endpoint", "codec", "res", "cache")
	first := h.With("transcode", "H.264", "1280x720", "hit")
	if got := h.With("transcode", "H.264", "1280x720", "miss"); got == first {
		t.Fatal("different label values resolved to one series")
	}
	var got *Histogram
	if n := testing.AllocsPerRun(100, func() {
		got = h.With("transcode", "H.264", "1280x720", "hit")
	}); n != 0 {
		t.Fatalf("With on an existing 4-label series: %v allocs, want 0", n)
	}
	if got != first {
		t.Fatal("With resolved an existing label set to a new series")
	}
}
