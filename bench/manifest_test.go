package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json; unknown keys are an error.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestManifest holds BENCHMARK.json to the harness (every workload and
// metric the harness emits is declared, and nothing else) and to the limits
// of the benchmark contract.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(raw))
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}

	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is outside the contract", p)
		}
	}
	if len(m.Command) < 1 || len(m.Command) > 32 {
		t.Errorf("command has %d elements", len(m.Command))
	}
	for _, c := range m.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command element %q is outside the contract", c)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	// 4 + 22 x workloads runs must end within 3420 s; allow each run twice
	// its measured phase for set-up, warm-up and checks.
	if runs := 4 + 22*len(m.Workloads); runs*2*m.RunSeconds > 3420 {
		t.Errorf("%d runs of %d s cannot fit in 3420 s", runs, m.RunSeconds)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if n := len(m.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", n, len(workloads))
	}
	for i, w := range m.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), harness has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(kind string, got []manifestMetric, want []metricDef, limit int, bounded bool) {
		if len(got) < 1 || len(got) > limit || len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, harness emits %d, limit %d", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			unique(g.Name)
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d] = %+v, harness has %+v", kind, i, g, w)
			}
			if !unitRE.MatchString(g.Unit) || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s %s: unit %q, better %q", kind, g.Name, g.Unit, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound <= 0 || *g.Bound > 0.25 || *g.Bound != w.Bound):
				t.Errorf("%s %s: bound %v, harness has %v, limit (0, 0.25]", kind, g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, 16, true)
	check("per_layer", m.PerLayer, perLayer, 128, false)

	setup := m.EndToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", setup)
	}
	for _, e := range m.EndToEnd {
		if *e.Bound > *setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", e.Name)
		}
	}
}
