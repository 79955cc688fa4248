package main

import (
	"runtime"
	"syscall"
	"time"
)

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer; a zero
	// reading would show as a zero metric.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU so far. It covers every
// goroutine, the garbage collector included, which is what a host pays.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// memMark is a snapshot of the allocator's running totals; two marks
// bracket a timed region.
type memMark struct {
	totalAlloc uint64
	numGC      uint32
	pauseNS    uint64
}

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{totalAlloc: m.TotalAlloc, numGC: m.NumGC, pauseNS: m.PauseTotalNs}
}

// retainedHeapMB forces a collection and returns what survives it. keep
// is what the caller wants counted as reachable; naming it here stops
// the compiler from treating it as dead before the collection runs. It
// collects twice: sync.Pool contents and objects with finalizers survive
// one cycle, and whether they are there is an accident of timing.
func retainedHeapMB(keep any) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return float64(m.HeapAlloc) / (1 << 20)
}
