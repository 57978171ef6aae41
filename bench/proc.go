package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSnap is one reading of the process-wide counters the per-frame cost
// metrics are deltas of.
type procSnap struct {
	wall    time.Time
	cpu     time.Duration // user+sys, getrusage(RUSAGE_SELF)
	alloc   uint64        // runtime.MemStats.TotalAlloc
	gcs     uint32
	gcPause time.Duration
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		wall:    time.Now(),
		cpu:     cpuTime(),
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
