package main

import (
	"time"
)

// The shared host's speed swings by up to twice over a few minutes: in one
// process, the median time of a fixed 30 000-cycle simulator run over 10 s
// windows went from 118 ms to 236 ms within three minutes, on a two-vCPU
// guest. Sampling inside one run cannot remove a swing that outlasts the
// run, so the untraced run also times a fixed calibration kernel, in
// blocks between its campaigns, and reports every timing scaled
// to a reference host speed: a timing t becomes t × calibRef / c, where c
// is the kernel's median time over the run. The kernel is this file's own
// code, untouched by changes to the program, so a change that slows or
// speeds the program moves the scaled figures exactly as it moves the raw
// ones. The raw timings are printed in the run's log.
//
// The kernel mixes random read-modify-writes over a 4 MiB table with map
// inserts and lookups that allocate, because its time has to follow the
// simulator's: on a two-core host over a 200 s swing, the medians of 10 s
// windows of simulator steps and of these two loops correlated at 0.96
// and 0.97, and the simulator's time divided by either loop's varied by
// 8% where the simulator's own varied by 21% (coefficients of variation).

// calibRef is the calibration kernel's time on the reference host: its
// median on a two-vCPU Intel Xeon guest at 2.0 GHz.
const calibRef = 25 * time.Millisecond

// calibReps is how many kernel runs one calibration block times.
const calibReps = 10

const (
	calibTableLen = 1 << 19 // 4 MiB of uint64
	calibRMWs     = 1_500_000
	calibMapOps   = 150_000
)

var (
	calibTable = make([]uint64, calibTableLen)
	calibSink  uint64
)

// calibKernel does the kernel's fixed work once.
func calibKernel() {
	x := uint64(88172645463325252)
	var s uint64
	for i := 0; i < calibRMWs; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calibTableLen - 1)
		calibTable[j] += x
		s += calibTable[(j*7)&(calibTableLen-1)]
	}
	m := make(map[uint64]*[4]uint64)
	for i := 0; i < calibMapOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := x >> 50
		if v, ok := m[k]; ok {
			v[0]++
		} else {
			m[k] = &[4]uint64{x}
		}
	}
	calibSink += s + uint64(len(m))
}

// calibrate times one block of kernel runs and returns their durations in
// seconds.
func calibrate() []float64 {
	out := make([]float64, calibReps)
	for i := range out {
		t0 := time.Now()
		calibKernel()
		out[i] = time.Since(t0).Seconds()
	}
	return out
}
