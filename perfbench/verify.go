package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"pipefault/internal/core"
)

// verdict is the output check of one invocation.
type verdict struct {
	attempted, failed int
	problems          []string
}

func (v *verdict) problem(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// campaignRun is one measured campaign with the seed it ran on.
type campaignRun struct {
	seed   int64
	res    *core.Result
	export []byte
}

// verify is the output check. It runs the shape's reference campaign on
// o.seed, untimed, and requires every measured campaign on that seed to
// export the same bytes. A campaign on another seed must export the same
// bytes as every earlier run of that seed on this build, which the export
// ledger under o.outDir remembers.
func verify(o options, env envStamp, runs []campaignRun) verdict {
	ref, refErr := core.Run(referenceConfig(o.shape, o.seed))
	var refExport []byte
	if refErr == nil {
		refExport, refErr = exportJSON(ref)
	}
	if refErr == nil && trialTotal(ref) != o.shape.trials() {
		refErr = fmt.Errorf("%d trials, configured %d", trialTotal(ref), o.shape.trials())
	}
	mismatch := make([]error, len(runs))
	for i, r := range runs {
		switch {
		case refErr != nil:
			mismatch[i] = fmt.Errorf("reference campaign: %w", refErr)
		case r.seed == o.seed:
			if !bytes.Equal(r.export, refExport) {
				mismatch[i] = errors.New("export differs from the reference campaign's")
			}
		default:
			mismatch[i] = checkExport(ledgerPath(o, env, r.seed, "export.sha256"), r.export)
		}
	}
	return judge(o.shape, runs, mismatch)
}

// judge counts attempted and failed trials. A campaign with a mismatch, or
// whose trial total differs from the configured total, counts all its
// trials as failed; otherwise its contained anomalies are its failures.
func judge(s shape, runs []campaignRun, mismatch []error) verdict {
	want := s.trials()
	var v verdict
	for i, r := range runs {
		v.attempted += want
		got := trialTotal(r.res)
		switch {
		case mismatch[i] != nil:
			v.failed += want
			v.problem("campaign %d (seed %d): %v", i, r.seed, mismatch[i])
		case got != want:
			v.failed += want
			v.problem("campaign %d (seed %d): %d trials, configured %d", i, r.seed, got, want)
		default:
			v.failed += anomalies(r.res)
		}
	}
	return v
}

// ledgerPath names a ledger file for one workload, seed and build.
func ledgerPath(o options, env envStamp, seed int64, kind string) string {
	return filepath.Join(o.outDir, "ledger", fmt.Sprintf("%s-seed%d-%s.%s", o.shape.Name, seed, env.Build, kind))
}

// checkExport compares an export with the one an earlier run of the same
// workload, seed and build recorded at path, or records it there.
func checkExport(path string, export []byte) error {
	h := sha256.Sum256(export)
	cur := hex.EncodeToString(h[:])
	prev, err := readOrRecord(path, []byte(cur))
	if err != nil || prev == nil {
		return err
	}
	if string(prev) != cur {
		return fmt.Errorf("export differs from an earlier run of this seed (sha256 %s, earlier %s)", cur, prev)
	}
	return nil
}

// readOrRecord returns the contents of path, or writes data there and
// returns nil when the file does not exist yet.
func readOrRecord(path string, data []byte) ([]byte, error) {
	prev, err := os.ReadFile(path)
	if err == nil {
		return prev, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return nil, os.WriteFile(path, data, 0o644)
}

func trialTotal(res *core.Result) int {
	n := 0
	for _, p := range res.Pops {
		n += p.Total()
	}
	return n
}

func anomalies(res *core.Result) int {
	n := 0
	for _, p := range res.Pops {
		n += p.AnomalyCount()
	}
	return n
}

// counts are the traced run's exact counts: simulated-event and outcome
// totals that must repeat bit for bit across runs of one seed on one build.
type counts map[string]float64

// countNames are the per-layer metrics that are counts.
var countNames = []string{
	"uarch.measure_cycles",
	"core.mean_cycles_per_trial",
	"prove.proven_frac",
	"mem.image_pages",
}

func init() {
	for _, k := range resolveKindNames() {
		countNames = append(countNames, "core.resolved."+k)
	}
}

// diffCounts reports every count that differs between two runs.
func diffCounts(prev, cur counts) error {
	var drift []string
	for _, k := range countNames {
		p, okp := prev[k]
		c, okc := cur[k]
		if okp != okc || math.Float64bits(p) != math.Float64bits(c) {
			drift = append(drift, fmt.Sprintf("%s: %v then %v", k, p, c))
		}
	}
	if len(drift) > 0 {
		sort.Strings(drift)
		return fmt.Errorf("count drift across runs of one seed: %v", drift)
	}
	return nil
}

// checkCounts compares cur with the counts an earlier run of the same
// workload, seed and build recorded at path, or records cur there.
func checkCounts(path string, cur counts) error {
	data, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	prevData, err := readOrRecord(path, data)
	if err != nil || prevData == nil {
		return err
	}
	var prev counts
	if err := json.Unmarshal(prevData, &prev); err != nil {
		return fmt.Errorf("count ledger %s: %w", path, err)
	}
	return diffCounts(prev, cur)
}
