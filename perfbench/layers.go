package main

import (
	"fmt"
	"time"

	"pipefault/internal/mem"
	"pipefault/internal/prove"
	"pipefault/internal/state"
	"pipefault/internal/uarch"
)

// replay holds what the layer replays measured. Each replay calls the
// layer's public functions the way core.Run does, on the checkpoint
// schedule the campaign uses, but outside core.Run so each call can be
// timed on its own.
type replay struct {
	measure       time.Duration // NewOnMemory + Run to halt
	measureCycles uint64
	pilot         time.Duration // Step from reset to the last checkpoint
	snapshotUS    []float64     // Snapshot, one per checkpoint
	captureUS     []float64     // Mem.CaptureImage, one per checkpoint
	pages         []int         // resident pages of each image
	restoreCkUS   []float64     // RestoreCheckpoint hopping checkpoint to checkpoint
	restoreImgUS  []float64     // Mem.RestoreImage hopping image to image
	golden        time.Duration // traced golden windows, all checkpoints
	goldenCycles  uint64
	proveMS       []float64 // prove.Compute, one per checkpoint
	rollbackUS    []float64 // Mark + RollbackTo around one trial-length run
	getNS         float64   // Elem.Get on prf.value
	setNS         float64   // Elem.Set on prf.value
	setTracedNS   float64   // Elem.Set on prf.value with a touch trace attached
}

// rewindReps is how many trial-length runs each checkpoint rewinds.
const rewindReps = 8

// stateOps is the number of Get or Set calls one state micro-run makes;
// stateReps micro-runs are made and their median kept.
const (
	stateOps  = 1 << 18
	stateReps = 5
)

// sink keeps the state micro-runs' reads observable.
var sink uint64

// replayLayers replays the campaign's phases layer by layer. cks is the
// campaign's checkpoint schedule, horizon its trial horizon and trialLen
// the mean cycles one trial simulates.
func replayLayers(t *tracer, s shape, cks []uint64, horizon, trialLen int) (replay, error) {
	var r replay
	prog, err := s.Workload.Program()
	if err != nil {
		return r, err
	}
	ref, err := s.Workload.ComputeReference()
	if err != nil {
		return r, err
	}
	newMachine := func() *uarch.Machine {
		mm := mem.New()
		regs := prog.Load(mm)
		return uarch.NewOnMemory(uarch.Config{}, mm, ref.Legal, prog.Entry, regs)
	}

	// Measurement pass.
	t.begin("uarch.measure")
	meas := newMachine()
	meas.Run(30_000_000)
	r.measure = t.end()
	if !meas.Halted() {
		return r, fmt.Errorf("replay: %s did not halt", s.Workload.Name)
	}
	r.measureCycles = meas.Cycle

	// Pilot: one machine steps to each checkpoint and captures its image.
	t.begin("uarch.pilot")
	p := newMachine()
	p.Mem.BeginImaging()
	snaps := make([]*uarch.Snapshot, 0, len(cks))
	imgs := make([]*mem.Image, 0, len(cks))
	for _, cyc := range cks {
		t.begin("uarch.Step")
		for p.Cycle < cyc && !p.Halted() {
			p.Step()
		}
		r.pilot += t.end()
		if p.Halted() {
			return r, fmt.Errorf("replay: %s halted before checkpoint cycle %d", s.Workload.Name, cyc)
		}
		t.begin("uarch.Snapshot")
		snaps = append(snaps, p.Snapshot())
		r.snapshotUS = append(r.snapshotUS, toUS(t.end()))
		t.begin("mem.CaptureImage")
		img := p.Mem.CaptureImage()
		r.captureUS = append(r.captureUS, toUS(t.end()))
		imgs = append(imgs, img)
		r.pages = append(r.pages, img.PageCount())
	}
	p.Mem.EndImaging()
	t.end()

	// Image hopping on a bare memory.
	t.begin("mem.restore")
	bare := mem.New()
	var prevImg *mem.Image
	for _, img := range imgs {
		t.begin("mem.RestoreImage")
		bare.RestoreImage(img, prevImg)
		r.restoreImgUS = append(r.restoreImgUS, toUS(t.end()))
		prevImg = img
	}
	t.end()

	// Worker: restore each checkpoint, run its traced golden window,
	// prove over it, then rewind trial-length runs.
	t.begin("worker")
	w := newMachine()
	trace := w.F.NewTouchTrace()
	horizonG := uint64(horizon + 2000)
	var mark uarch.MarkPoint
	prevImg = nil
	for i := range cks {
		t.begin("uarch.RestoreCheckpoint")
		w.RestoreCheckpoint(snaps[i], imgs[i], prevImg)
		r.restoreCkUS = append(r.restoreCkUS, toUS(t.end()))
		prevImg = imgs[i]

		w.BeginJournal()
		w.Mark(&mark)
		w.Mem.BeginUndo()
		trace.Reset()
		t.begin("uarch.golden")
		w.F.StartTrace(trace)
		for c := uint64(1); c <= horizonG; c++ {
			w.F.TraceCycle(c)
			w.Step()
		}
		w.F.StopTrace()
		r.golden += t.end()
		r.goldenCycles += horizonG
		w.RollbackTo(&mark)
		w.CommitJournal()
		w.Mem.Rollback()

		t.begin("prove.Compute")
		prove.Compute(w.F, trace, prove.Monitors{}, uint64(horizon), uarch.ProofHints(), prove.RuleAll)
		r.proveMS = append(r.proveMS, toMS(t.end()))

		w.BeginJournal()
		w.Mem.BeginUndo()
		for k := 0; k < rewindReps; k++ {
			t0 := time.Now()
			w.Mark(&mark)
			memMark := w.Mem.Mark()
			d := time.Since(t0)
			for c := 0; c < trialLen; c++ {
				w.Step()
			}
			t1 := time.Now()
			w.RollbackTo(&mark)
			w.Mem.RollbackTo(memMark)
			d += time.Since(t1)
			t.add("uarch.rollback", t1, d, 1)
			r.rollbackUS = append(r.rollbackUS, toUS(d))
		}
		w.CommitJournal()
		w.Mem.Rollback()
	}
	t.end()

	// Bit-store primitives on the physical register file.
	t.begin("state")
	sm := newMachine()
	e := sm.F.Elem("prf.value")
	if e == nil {
		return r, fmt.Errorf("replay: no prf.value element")
	}
	r.getNS = stateMicro(t, "state.Elem.Get", func() { stateGets(e) })
	r.setNS = stateMicro(t, "state.Elem.Set", func() { stateSets(e) })
	tt := sm.F.NewTouchTrace()
	sm.F.StartTrace(tt)
	sm.F.TraceCycle(1)
	r.setTracedNS = stateMicro(t, "state.Elem.Set.traced", func() { stateSets(e) })
	sm.F.StopTrace()
	t.end()
	return r, nil
}

// stateMicro times stateReps runs of fn, each stateOps calls, and returns
// the median nanoseconds per call.
func stateMicro(t *tracer, name string, fn func()) float64 {
	per := make([]float64, stateReps)
	for i := range per {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		t.add(name, t0, d, stateOps)
		per[i] = float64(d.Nanoseconds()) / stateOps
	}
	return median(per)
}

func stateGets(e *state.Elem) {
	n := e.Entries()
	var acc uint64
	for i, idx := 0, 0; i < stateOps; i++ {
		acc += e.Get(idx)
		if idx++; idx == n {
			idx = 0
		}
	}
	sink += acc
}

// stateSets writes a value that differs from the entry's current one on
// every call, so no Set takes the no-op early out.
func stateSets(e *state.Elem) {
	n := e.Entries()
	base := sink + 1
	for i, idx := 0, 0; i < stateOps; i++ {
		e.Set(idx, base+uint64(i))
		if idx++; idx == n {
			idx = 0
		}
	}
	sink = base + stateOps
}

func toUS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func toMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
