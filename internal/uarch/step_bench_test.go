package uarch

import (
	"testing"

	"pipefault/internal/mem"
	"pipefault/internal/workload"
)

// BenchmarkStep measures raw detailed-model stepping on the Gzip
// workload, the same untraced loop perfbench reports as
// uarch.step_ns_per_cycle (there timed over a whole run to halt).
func BenchmarkStep(b *testing.B) {
	w := workload.Gzip
	prog, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	ref, err := w.ComputeReference()
	if err != nil {
		b.Fatal(err)
	}
	newMachine := func() *Machine {
		mm := mem.New()
		regs := prog.Load(mm)
		return NewOnMemory(Config{}, mm, ref.Legal, prog.Entry, regs)
	}
	m := newMachine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Halted() {
			b.StopTimer()
			m = newMachine()
			b.StartTimer()
		}
		m.Step()
	}
}
