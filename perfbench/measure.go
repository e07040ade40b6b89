package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"pipefault/internal/core"
	"pipefault/internal/mem"
	"pipefault/internal/uarch"
	"pipefault/internal/workload"
)

// setupTimes is one set-up of a workload: assembling it, running the
// functional reference, and building the first pipeline machine.
type setupTimes struct {
	program, reference, machine time.Duration
	insns                       uint64 // dynamic instructions of the reference run
}

func (s setupTimes) total() time.Duration { return s.program + s.reference + s.machine }

// setupOnce sets a workload up from scratch. Workload.Program caches its
// result, so each set-up assembles a fresh copy of the workload. With a
// tracer, each step is recorded as a span.
func setupOnce(w *workload.Workload, t *tracer) (setupTimes, error) {
	fresh := &workload.Workload{Name: w.Name, Desc: w.Desc, Source: w.Source}
	var st setupTimes
	t0 := time.Now()
	prog, err := fresh.Program()
	if err != nil {
		return st, err
	}
	t1 := time.Now()
	ref, err := fresh.ComputeReference()
	if err != nil {
		return st, err
	}
	t2 := time.Now()
	mm := mem.New()
	regs := prog.Load(mm)
	uarch.NewOnMemory(uarch.Config{}, mm, ref.Legal, prog.Entry, regs)
	t3 := time.Now()
	st.program, st.reference, st.machine = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	if t != nil {
		t.add("asm.Program", t0, st.program, 1)
		t.add("arch.ComputeReference", t1, st.reference, 1)
		t.add("uarch.NewOnMemory", t2, st.machine, 1)
	}
	st.insns = ref.DynInsns
	return st, nil
}

// sample is one untraced campaign.
type sample struct {
	wall, first, cpu time.Duration
	alloc            uint64 // bytes allocated during the campaign
	peakMem          uint64 // peak memory the Go runtime held from the system
	res              *core.Result
	export           []byte // the campaign's WriteJSON export
}

// timedCampaign runs one campaign and measures it. The heap is collected
// first, outside the timed region, so every campaign starts from the same
// garbage-free heap.
func timedCampaign(cfg core.Config) (sample, error) {
	var ft firstTrial
	ft.arm(&cfg)
	runtime.GC()
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	mem := startMemSampler()
	cpu0 := cpuTime()
	ft.start = time.Now()
	res, err := core.Run(cfg)
	wall := time.Since(ft.start)
	cpu1 := cpuTime()
	peak := mem.stop()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return sample{}, err
	}
	s := sample{wall: wall, cpu: cpu1 - cpu0, alloc: ms1.TotalAlloc - ms0.TotalAlloc, peakMem: peak, res: res}
	s.first = time.Duration(ft.at.Load())
	if s.first == 0 {
		s.first = wall
	}
	s.export, err = exportJSON(res)
	return s, err
}

func exportJSON(res *core.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	return buf.Bytes(), nil
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampler tracks the peak of the memory the Go runtime holds from the
// operating system: everything it has mapped minus what it has released.
// That is the resident memory the campaign grows, without the process's
// fixed text and data, and unlike getrusage's high-water mark it can be
// taken per campaign.
type memSampler struct {
	done chan struct{}
	peak chan uint64
}

// memSampleEvery is the sampling period: a small fraction of the shortest
// campaign, so a short-lived peak is rarely missed.
const memSampleEvery = 5 * time.Millisecond

func startMemSampler() *memSampler {
	s := &memSampler{done: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		var peak uint64
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-s.done:
				s.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the peak in bytes.
func (s *memSampler) stop() uint64 {
	close(s.done)
	return <-s.peak
}

// median returns the median of xs (NaN for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
