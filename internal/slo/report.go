package slo

import (
	"encoding/json"
	"fmt"
)

// Report is the document hdvslo -json writes: one harness invocation's
// configuration and results, with the host it ran on.
type Report struct {
	Benchmark   string `json:"benchmark"` // always "hdvslo"
	Description string `json:"description,omitempty"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`

	Config ReportConfig `json:"config"`

	// Runs are the fixed-client-count load points, one per
	// {path} × {fps} combination.
	Runs []ReportRun `json:"runs"`
	// Searches are the max-sustainable-streams results, present when
	// the harness ran in -search mode.
	Searches []ReportSearch `json:"searches,omitempty"`
}

// ReportConfig echoes the stream and pacing parameters of the run.
type ReportConfig struct {
	Codec           string  `json:"codec"`
	Seq             string  `json:"seq"`
	Width           int     `json:"width"`
	Height          int     `json:"height"`
	Frames          int     `json:"frames"`
	Q               int     `json:"q"`
	GOP             int     `json:"gop"`
	Clients         int     `json:"clients"`
	ReadAheadFrames int     `json:"readahead_frames"`
	DropAfterMS     float64 `json:"drop_after_ms"` // 0 = one display period
	MissBudget      float64 `json:"miss_budget,omitempty"`
}

// ReportRun is one load point: Path says which serving path it
// exercised — "cold" (every stream encoded) or "warm" (GOP cache
// primed before measuring).
type ReportRun struct {
	Path string `json:"path"`
	RunResult
	// Server is the server-side counter movement over the run (scraped
	// from /metrics before and after); nil when the scrape failed or the
	// server predates the registry.
	Server *ServerDelta `json:"server,omitempty"`
}

// ReportSearch is one search-mode result for a path × fps point.
type ReportSearch struct {
	Path string `json:"path"`
	FPS  int    `json:"fps"`
	SearchResult
}

// Marshal renders the report as indented JSON with a trailing newline,
// the encoding hdvslo -json writes.
func (r Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseReport decodes and sanity-checks a Marshal-encoded report.
func ParseReport(b []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return Report{}, fmt.Errorf("slo report: %w", err)
	}
	if r.Benchmark != "hdvslo" {
		return Report{}, fmt.Errorf("slo report: benchmark %q, want %q", r.Benchmark, "hdvslo")
	}
	if len(r.Runs) == 0 && len(r.Searches) == 0 {
		return Report{}, fmt.Errorf("slo report: no runs or searches")
	}
	return r, nil
}
