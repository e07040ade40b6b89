package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipefault/internal/core"
	"pipefault/internal/workload"
)

// tinyShapes exercise the harness end to end in seconds: one transient
// shape checked against an early-stop-off reference, one stuck-at shape
// checked by the model oracle.
var tinyShapes = []shape{
	{
		Name:              "tiny",
		Workload:          workload.Tiny,
		Checkpoints:       2,
		Pops:              []core.Population{{Name: "l+r", Trials: 5}},
		Horizon:           1500,
		EarlyOffReference: true,
	},
	{
		Name:        "tiny-stuck",
		Workload:    workload.Tiny,
		Checkpoints: 2,
		Pops:        []core.Population{{Name: "l+r", Trials: 5}},
		Horizon:     1500,
		Model:       core.StuckAt{Polarity: 1, Duration: 100, Random: true},
	},
}

func tinyOptions(t *testing.T, s shape, traced bool) options {
	return options{shape: s, seed: 7, minCampaigns: 2, setupReps: 2, trace: traced, outDir: t.TempDir(), log: io.Discard}
}

// benchmarkSpec is the part of BENCHMARK.json the harness must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, err := shapeByName(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestEveryMetricEmitted runs the untraced and the traced run on the tiny
// shapes and checks that each emits exactly the metrics BENCHMARK.json
// names, with the units it names, and passes its own output check.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, s := range tinyShapes {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := run(tinyOptions(t, s, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", s.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", s.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", s.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", s.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestVerifyCountsMismatchAsFailed forces mismatches through the output
// check: a tampered export on the reference seed, a tampered export on a
// seed the ledger has seen, an oracle error and a missing trial must each
// count the campaign's trials as failed.
func TestVerifyCountsMismatchAsFailed(t *testing.T) {
	s := tinyShapes[0]
	o := tinyOptions(t, s, false)
	env := envStamp{Build: "test"}
	var runs []campaignRun
	for _, seed := range []int64{o.seed, subSeed(o.seed, 1)} {
		sm, err := timedCampaign(campaignConfig(s, seed))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, campaignRun{seed, sm.res, sm.export})
	}
	want := s.trials()
	if v := verify(o, env, runs); v.failed != 0 || v.attempted != 2*want || len(v.problems) != 0 {
		t.Fatalf("clean runs: attempted=%d failed=%d problems=%v", v.attempted, v.failed, v.problems)
	}

	for i := range runs {
		bad := append([]campaignRun(nil), runs...)
		bad[i].export = append([]byte(nil), runs[i].export...)
		bad[i].export[len(bad[i].export)/2] ^= 1
		if v := verify(o, env, bad); v.failed != want || len(v.problems) != 1 {
			t.Errorf("tampered export of campaign %d: failed=%d problems=%v, want %d failed", i, v.failed, v.problems, want)
		}
	}

	mismatch := []error{&core.ProveError{Elem: "x"}, &core.ProveError{Elem: "x"}}
	if v := judge(s, runs, mismatch); v.failed != 2*want {
		t.Errorf("oracle error: failed=%d problems=%v, want every trial failed", v.failed, v.problems)
	}

	short := *runs[0].res
	short.Pops = map[string]*core.PopResult{"l+r": {Name: "l+r", Trials: runs[0].res.Pops["l+r"].Trials[1:]}}
	v := judge(s, []campaignRun{{o.seed, &short, runs[0].export}}, []error{nil})
	if v.failed != want || len(v.problems) != 1 || !strings.Contains(v.problems[0], "trials") {
		t.Errorf("missing trial: failed=%d problems=%v, want %d failed", v.failed, v.problems, want)
	}
}

func TestCountDriftFires(t *testing.T) {
	path := filepath.Join(t.TempDir(), "counts", "tiny.json")
	cur := counts{}
	for i, k := range countNames {
		cur[k] = float64(i) + 0.25
	}
	if err := checkCounts(path, cur); err != nil {
		t.Fatalf("first run records: %v", err)
	}
	if err := checkCounts(path, cur); err != nil {
		t.Fatalf("identical counts: %v", err)
	}
	drift := counts{}
	for k, v := range cur {
		drift[k] = v
	}
	drift["core.mean_cycles_per_trial"] += 1e-9
	err := checkCounts(path, drift)
	if err == nil || !strings.Contains(err.Error(), "core.mean_cycles_per_trial") {
		t.Errorf("drifted count: got %v, want a drift error naming the count", err)
	}
	delete(drift, "core.mean_cycles_per_trial")
	if err := diffCounts(cur, drift); err == nil {
		t.Error("missing count: got no error")
	}
}
