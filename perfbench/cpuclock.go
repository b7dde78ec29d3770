package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// Every end-to-end time is process CPU time scaled to a reference
// speed of the machine.
//
// CPU time, because the client session and every server run in this
// one process, and on a shared virtual machine the wall clock also
// counts the time the hypervisor gives other tenants: up to 37% of
// this machine's time while the benchmark was written, which moved
// throughput by a third between runs of the same code.
//
// Scaled, because CPU time alone still follows the machine: while other
// tenants load the host, the same work takes up to twice the CPU time
// (calls took 1.6 ms of CPU per operation in one hour and 3.4 ms in
// another). A run therefore times a fixed piece of work, calibrate,
// between its set-ups, between its rounds and between its reopens, and
// multiplies each phase's times by refCalib over the median calibration
// time of that phase. A change to the program moves the phase's CPU
// time and not the calibration, which runs no code of the program.

// clockProcessCPU is CLOCK_PROCESS_CPUTIME_ID: the CPU time of all the
// process's threads. The kernel leaves out time stolen by the
// hypervisor.
const clockProcessCPU = 2

// cpuNow is the process's CPU time so far.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// refCalib is the calibration's CPU time at the reference speed; it
// fixes the unit of the scaled times.
const refCalib = time.Millisecond

// The calibration has two parts, each done twice with only the second
// pass timed, so that what ran before it, and so the program under
// test, does not change its time:
//
//   - a walk of a random cycle through a 16 Ki-entry table, looking each
//     step up in a map of the same size: pointer chasing, hashing and
//     branches in the L2 cache, like an interpreter's;
//   - a sequential update of a 4 MB array: the memory traffic that
//     scans of large relations make, and that other tenants slow most.
//
// Neither allocates, so the calibration neither triggers nor feeds the
// GC. When the machine sped up in one series of runs, the scans
// workload's CPU time fell by 28%, the update's by 27% and the walk's
// by 15%; calls' CPU time followed both parts about as closely.
const (
	calibSize   = 1 << 14
	calibSteps  = 12000
	calibStream = 1 << 19
)

var (
	calibNext  []int32
	calibKeys  []int
	calibMap   map[int]int32
	calibStrip []int64
	calibSink  uint64
	// calibBytes is the live heap the calibration's tables take, which
	// heap_mb leaves out.
	calibBytes uint64
)

// initCalibration builds the calibration's tables.
func initCalibration() {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	h0 := heap()
	const n = calibSize
	next, perm := make([]int32, n), make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	keys := make([]int, n)
	for i := range perm {
		next[perm[i]] = perm[(i+1)%n]
		keys[i] = int(perm[i]) * 2654435761
	}
	m := make(map[int]int32, n)
	for i, k := range keys {
		m[k] = int32(i)
	}
	calibNext, calibKeys, calibMap = next, keys, m
	calibStrip = make([]int64, calibStream)
	calibBytes = heap() - h0
}

// calibrate does the fixed work and returns the CPU time of its timed
// passes.
func calibrate() time.Duration {
	calibWalk()
	c0 := cpuNow()
	calibWalk()
	t := cpuNow() - c0
	calibUpdate()
	c0 = cpuNow()
	calibUpdate()
	return t + cpuNow() - c0
}

func calibWalk() {
	p := int32(0)
	h := uint64(1469598103934665603)
	for i := 0; i < calibSteps; i++ {
		p = calibNext[p]
		h ^= uint64(calibMap[calibKeys[p]])
		h *= 1099511628211
		if h&1 == 0 {
			p = int32(h>>40) & (calibSize - 1)
		}
	}
	calibSink += h
}

func calibUpdate() {
	s := calibStrip
	for i := range s {
		s[i] += int64(i)
	}
	calibSink += uint64(s[len(s)-1])
}

// speed collects the calibration times of one phase.
type speed []time.Duration

func (s *speed) sample(n int) {
	for i := 0; i < n; i++ {
		*s = append(*s, calibrate())
	}
}

// calib is the phase's median calibration time.
func (s speed) calib() time.Duration {
	c := append(speed(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	if len(c) == 0 {
		return refCalib
	}
	return c[len(c)/2]
}

// scale converts a CPU time measured in the phase to the reference
// speed.
func (s speed) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refCalib) / float64(s.calib()))
}
