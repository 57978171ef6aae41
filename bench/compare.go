package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadRuns(path string) (runDoc, error) {
	var doc runDoc
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// values collects one metric of one workload over a file's untraced runs.
func (d runDoc) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range d.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			v = append(v, m.Value)
		}
	}
	return v
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, how much worse b is than a as a share of a (negative = better),
// the metric's bound, and a verdict. "unresolved" means either side's
// quartile spread is wider than the bound, so the medians cannot settle
// it. It reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit %s  num_cpu %d\nb: %s  commit %s  num_cpu %d\n",
		pathA, a.Env.Commit, a.Env.NumCPU, pathB, b.Env.Commit, b.Env.NumCPU)
	fmt.Fprintf(w, "%-13s %-19s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				return worse, fmt.Errorf("%s %s: missing from one of the files", wl.name, d.Name)
			}
			ma, mb := median(va), median(vb)
			by := 0.0
			if ma != 0 {
				by = (mb - ma) / ma
				if d.Better == "higher" {
					by = -by
				}
			}
			verdict := "ok"
			switch {
			case max(quartileSpread(va), quartileSpread(vb)) > d.Bound:
				verdict = "unresolved"
			case by > d.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(w, "%-13s %-19s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n",
				wl.name, d.Name, ma, mb, by*100, d.Bound*100, verdict)
		}
	}
	return worse, nil
}
