package main

// This file is the benchmark's only contact with core.Config's observation
// callbacks (OnTrialResolved, OnProgress) and oracle fields
// (ProveCrossCheck, ModelCrossCheck, EarlyStop). Those fields are due to be
// replaced or merged, so when they change only this file follows. The
// scheduling knobs (Sched, Rewind, TrialBatch, MaxImages) are never set.

import (
	"sync"
	"sync/atomic"
	"time"

	"pipefault/internal/core"
)

// oracleK is how many trials per checkpoint the verification campaign's
// runtime oracle re-simulates with every acceleration off.
const oracleK = 2

// campaignConfig is the campaign a shape names: one worker, the given
// seed, every other field at its core.Config default.
func campaignConfig(s shape, seed int64) core.Config {
	return core.Config{
		Workload:    s.Workload,
		Checkpoints: s.Checkpoints,
		Populations: s.Pops,
		Model:       s.Model,
		Horizon:     s.Horizon,
		Workers:     1,
		Seed:        seed,
	}
}

// referenceConfig is the shape's verification campaign: the runtime
// soundness oracle that fits the fault model is armed (the prover
// cross-check for the transient flip, the model cross-check otherwise),
// and shapes that ask for it run with early stopping off. Neither change
// may alter the export, so it is the reference every measured export must
// equal byte for byte.
func referenceConfig(s shape, seed int64) core.Config {
	cfg := campaignConfig(s, seed)
	if s.Model == nil {
		cfg.ProveCrossCheck = oracleK
	} else {
		cfg.ModelCrossCheck = oracleK
	}
	if s.EarlyOffReference {
		cfg.EarlyStop = core.EarlyStopOff
	}
	return cfg
}

// firstTrial records the time from the core.Run call to the first trial
// resolution. It is the one callback an untraced campaign carries: a load
// and a compare per trial after the first.
type firstTrial struct {
	start time.Time
	at    atomic.Int64 // nanoseconds after start; 0 until the first trial
}

func (f *firstTrial) arm(cfg *core.Config) {
	cfg.OnTrialResolved = func(core.ResolveKind, int) {
		if f.at.Load() == 0 {
			f.at.CompareAndSwap(0, int64(time.Since(f.start)))
		}
	}
}

// resolution is one trial attempt's end as the traced campaign saw it.
type resolution struct {
	at    time.Duration // since the core.Run call
	kind  core.ResolveKind
	steps int
}

// campaignProbe records every trial resolution and every checkpoint
// completion of a traced campaign.
type campaignProbe struct {
	start  time.Time
	mu     sync.Mutex
	res    []resolution
	ckDone []time.Duration // when each checkpoint completed, in order
}

func (p *campaignProbe) arm(cfg *core.Config) {
	cfg.OnTrialResolved = func(kind core.ResolveKind, steps int) {
		at := time.Since(p.start)
		p.mu.Lock()
		p.res = append(p.res, resolution{at: at, kind: kind, steps: steps})
		p.mu.Unlock()
	}
	cfg.OnProgress = func(pr core.Progress) {
		at := time.Since(p.start)
		p.mu.Lock()
		for len(p.ckDone) < pr.CheckpointsDone {
			p.ckDone = append(p.ckDone, at)
		}
		p.mu.Unlock()
	}
}

// resolveKindNames lists the trial resolution mechanisms in ResolveKind
// order.
func resolveKindNames() []string {
	names := make([]string, core.NumResolveKinds)
	for k := range names {
		names[k] = core.ResolveKind(k).String()
	}
	return names
}
