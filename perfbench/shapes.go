package main

import (
	"fmt"

	"pipefault/internal/core"
	"pipefault/internal/workload"
)

// A shape is one benchmark workload: the campaign a run measures. Fields
// left zero stay at the core.Config defaults.
type shape struct {
	Name        string
	Workload    *workload.Workload
	Checkpoints int
	Pops        []core.Population
	// Model is the fault model; nil is the default transient flip.
	Model core.FaultModel
	// Horizon is the per-trial cycle budget; 0 keeps the core default.
	Horizon int
	// EarlyOffReference makes the verification campaign run with early
	// stopping off, the semantic reference the repository's oracles compare
	// the accelerated engine against.
	EarlyOffReference bool
}

// trials is the configured trial total of one campaign.
func (s shape) trials() int {
	n := 0
	for _, p := range s.Pops {
		n += p.Trials
	}
	return s.Checkpoints * n
}

// shapes are the benchmark's workloads; doc.go records why each exists.
// BENCHMARK.json drives bench-shape and intermittent-mcf. paper-shape runs
// by hand: its campaigns are long enough that a run holds only two of them
// next to its verification campaign, too few for steady medians on a
// shared two-core host, and no longer run fits the benchmark's time budget.
var shapes = []shape{
	{
		Name:              "bench-shape",
		Workload:          workload.Gzip,
		Checkpoints:       8,
		Pops:              []core.Population{{Name: "l+r", Trials: 24}},
		EarlyOffReference: true,
	},
	{
		Name:        "paper-shape",
		Workload:    workload.Gzip,
		Checkpoints: 24,
		Pops: []core.Population{
			{Name: "l+r", Trials: 100},
			{Name: "l", LatchOnly: true, Trials: 100},
		},
	},
	{
		Name:        "intermittent-mcf",
		Workload:    workload.Mcf,
		Checkpoints: 4,
		Pops:        []core.Population{{Name: "l+r", Trials: 96}},
		Model:       core.StuckAt{Polarity: 1, Duration: 1000, Random: true},
	},
}

func shapeByName(name string) (shape, error) {
	for _, s := range shapes {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(shapes))
	for i, s := range shapes {
		names[i] = s.Name
	}
	return shape{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
