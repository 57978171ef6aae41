package main

import (
	"strings"
	"testing"
	"time"
)

var spinSink int

//go:noinline
func spinA(n int) {
	for i := 0; i < n; i++ {
		spinSink += i * i
	}
}

//go:noinline
func spinB(n int) {
	for i := 0; i < n; i++ {
		spinSink ^= i + 3
	}
}

// TestLeafSamplesTwoFunctions profiles a busy loop that spends about three
// quarters of its time in spinA and the rest in spinB, and checks that the
// reader finds both leaves in that order and files them under this package.
func TestLeafSamplesTwoFunctions(t *testing.T) {
	leaf, err := profileCPU(func() {
		for end := time.Now().Add(600 * time.Millisecond); time.Now().Before(end); {
			t0 := time.Now()
			for time.Since(t0) < 3*time.Millisecond {
				spinA(10000)
			}
			t0 = time.Now()
			for time.Since(t0) < time.Millisecond {
				spinB(10000)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var a, b, total int64
	for fn, n := range leaf {
		total += n
		switch {
		case strings.HasSuffix(fn, ".spinA"):
			a += n
			if pkg := funcPackage(fn); pkg != "bench" {
				t.Errorf("funcPackage(%q) = %q, want bench", fn, pkg)
			}
		case strings.HasSuffix(fn, ".spinB"):
			b += n
		}
	}
	if total < 20 {
		t.Skipf("only %d samples; the profiler did not get enough CPU to judge", total)
	}
	if a == 0 || b == 0 || a <= b {
		t.Fatalf("spinA %d samples, spinB %d of %d: want both present and spinA ahead", a, b, total)
	}
	shares := cpuShares(leaf, []string{"bench"})
	if shares["bench"] < 0.7 || shares["bench"]+shares["other"] < 0.999 {
		t.Fatalf("shares %v: want bench dominant and bench+other = 1", shares)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"hdvideobench/internal/swar.SAD16":                 "swar",
		"hdvideobench/internal/h264.(*Encoder).encodeMB":   "h264",
		"hdvideobench/internal/core.feed[go.shape.*uint8]": "core",
		"hdvideobench/internal/core.drain[a/b.T].func1":    "core",
		"runtime.mallocgc":                                 "runtime",
		"net/http.(*conn).serve":                           "http",
		"hdvideobench.EncodeFrames":                        "hdvideobench",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	shares := cpuShares(map[string]int64{"a/swar.X": 3, "net/http.Y": 1}, []string{"swar", "dct"})
	if shares["swar"] != 0.75 || shares["other"] != 0.25 || shares["dct"] != 0 {
		t.Errorf("cpuShares = %v", shares)
	}
}

func TestLeafSamplesRejectsGarbage(t *testing.T) {
	if _, err := leafSamples([]byte("not a gzip stream")); err == nil {
		t.Fatal("no error for a non-gzip profile")
	}
}
