package main

import (
	"bytes"
	"io"
	"math"
	"testing"
	"time"
)

// smokeSize runs every workload through the benchmark's own code path at a
// size that finishes in seconds.
var smokeSize = sizes{
	W: 96, H: 80,
	ClipFrames: 4,
	ParFrames:  4, ParGOP: 2,
	LadderFrames: 4, LadderGOP: 2,
	Rungs:  []ladderRung{{"48x32", 48, 32, 100}, {"96x80", 96, 80, 300}},
	ServeW: 96, ServeH: 80,
	ServeFrames: 4, ServeGOP: 2,
	ColdCacheBytes: 64 << 10,
	MinPSNR:        20, MinRungPSNR: 15,
	ProbeTime:   time.Millisecond,
	SetupBudget: 200 * time.Millisecond,
}

func smokeEnv(t *testing.T, trace bool) *env {
	return &env{seed: 1, seconds: 0.1, trace: trace, size: smokeSize, workDir: t.TempDir(), stderr: io.Discard}
}

// TestSmoke runs every workload untraced and traced and checks that each
// run reports exactly the declared metrics, all finite, with no failed
// operation.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name, defs := w.name, endToEnd
			if trace {
				name, defs = w.name+"/trace", perLayer
			}
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(smokeEnv(t, trace), w)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d attempted, %d failed", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %+v (present %v), want a finite value in %s", d.Name, m, ok, d.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("%s = %v: end-to-end metrics are never 0", d.Name, m.Value)
					}
				}
				var buf bytes.Buffer
				if err := printResult(&buf, w.name, 1, defs, res); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDamagedStreamIsAFailedOperation: a stream that lost a packet, and one
// whose packet was overwritten, must not pass as decoded.
func TestDamagedStreamIsAFailedOperation(t *testing.T) {
	for name, damage := range map[string]func(*encoded){
		"dropped packet": func(e *encoded) { e.pkts = e.pkts[:len(e.pkts)-1] },
		"overwritten packet": func(e *encoded) {
			p := e.pkts[1].Payload
			for i := range p {
				p[i] = 0xA5
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			r := newSerial(smokeEnv(t, false), true)
			if err := r.setup(nil); err != nil {
				t.Fatal(err)
			}
			damage(&r.coded[0])
			m := r.measure(0.01, nil)
			q, err := r.verify(nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed()+q.failed == 0 {
				t.Fatal("no failed operation reported")
			}
		})
	}
}

// TestWrongWarmBodyIsAFailedOperation: a warm response that differs from
// what priming delivered must count as failed, and only for that key.
func TestWrongWarmBodyIsAFailedOperation(t *testing.T) {
	r := newServe(smokeEnv(t, false), true)
	defer r.teardown()
	if err := r.setup(nil); err != nil {
		t.Fatal(err)
	}
	body := r.primed[0].body
	body[len(body)-1] ^= 0xff
	m := r.measure(0.05, nil)
	failed := 0
	for _, o := range m.ops {
		if o.failed {
			failed++
			if o.cell/numKinds != 0 {
				t.Fatalf("request class %d failed; only key 0 was tampered with", o.cell)
			}
		}
	}
	if failed == 0 {
		t.Fatalf("none of %d operations failed", len(m.ops))
	}
}
