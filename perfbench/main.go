package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"pipefault/internal/core"
)

// options configure one invocation.
type options struct {
	shape        shape
	seed         int64
	seconds      float64 // how long the untraced run keeps starting campaigns
	minCampaigns int     // campaigns the untraced run makes at least
	setupReps    int     // set-ups timed before each untraced campaign, and once in the traced run
	trace        bool
	outDir       string    // span files and the ledger go here
	log          io.Writer // human-readable report
}

// metric is one reported value. n is the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// result is the invocation's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envStamp records where and how a result was measured.
type envStamp struct {
	Workload   string `json:"workload"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Build      string `json:"build"` // hash of the benchmark executable
	Workers    int    `json:"workers"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
}

func main() {
	name := flag.String("workload", "bench-shape", "workload to run")
	seed := flag.Int64("seed", 4242, "workload seed")
	secs := flag.Float64("seconds", 35, "seconds the untraced run keeps starting campaigns")
	trace := flag.Int("trace", 0, "1: traced run with per-layer metrics; 0: untraced run with end-to-end metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and the ledger")
	flag.Parse()
	s, err := shapeByName(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o := options{
		shape: s, seed: *seed, seconds: *secs, minCampaigns: 2, setupReps: 8,
		trace: *trace == 1, outDir: *out, log: os.Stdout,
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run makes one invocation: the untraced or the traced run, then the
// output check. It prints the environment stamp and every metric to o.log
// and returns the result line.
func run(o options) (*result, error) {
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	env := envStamp{
		Workload:   o.shape.Name,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
		Build:      buildHash(),
		Workers:    campaignConfig(o.shape, o.seed).Workers,
		Seed:       o.seed,
		Traced:     o.trace,
	}
	stamp, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "env %s\n", stamp)

	res := &result{Metrics: make(map[string]metric)}
	var v verdict
	if o.trace {
		v, err = tracedRun(o, env, res.Metrics)
	} else {
		v, err = untracedRun(o, env, res.Metrics)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = v.attempted, v.failed
	res.Correct = v.failed == 0 && len(v.problems) == 0
	for _, p := range v.problems {
		fmt.Fprintf(o.log, "FAIL %s\n", p)
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", p)
	}
	printMetrics(o.log, res.Metrics)
	fmt.Fprintf(o.log, "%-32s %14.6g %-8s attempted=%d failed=%d correct=%v\n",
		"failed_frac", float64(v.failed)/float64(max(v.attempted, 1)), "1", v.attempted, v.failed, res.Correct)
	return res, nil
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := ms[k]
		fmt.Fprintf(w, "%-32s %14.6g %-8s n=%d\n", k, m.Value, m.Unit, m.n)
	}
}

// setups times o.setupReps set-ups and returns them; t may be nil.
func setups(o options, t *tracer) ([]setupTimes, error) {
	out := make([]setupTimes, o.setupReps)
	for i := range out {
		st, err := setupOnce(o.shape.Workload, t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out[i] = st
	}
	return out, nil
}

// subSeed is the campaign seed of the i-th campaign an untraced run
// makes: the run's seed first, then seeds derived from it. Spreading a
// run over several checkpoint schedules keeps one unusually cheap or dear
// schedule from setting its medians.
func subSeed(seed int64, i int) int64 { return seed + int64(i)<<32 }

// untracedRun measures the end-to-end metrics: campaigns, each on its own
// sub-seed, are started until o.seconds have passed (at least
// o.minCampaigns of them), and each metric is the median over them.
//
// The set-ups are timed in a block before each campaign rather than all at
// once, so setup_s, like the campaign metrics, samples the whole run: the
// shared host's speed drifts over tens of seconds.
func untracedRun(o options, env envStamp, ms map[string]metric) (verdict, error) {
	var setup, calib []float64
	var samples []sample
	var runs []campaignRun
	t0 := time.Now()
	for len(samples) < o.minCampaigns || time.Since(t0).Seconds() < o.seconds {
		sts, err := setups(o, nil)
		if err != nil {
			return verdict{}, err
		}
		for _, st := range sts {
			setup = append(setup, st.total().Seconds())
		}
		calib = append(calib, calibrate()...)
		seed := subSeed(o.seed, len(samples))
		sm, err := timedCampaign(campaignConfig(o.shape, seed))
		if err != nil {
			return verdict{}, fmt.Errorf("campaign (seed %d): %w", seed, err)
		}
		samples = append(samples, sm)
		runs = append(runs, campaignRun{seed, sm.res, sm.export})
	}

	var wall, first, cpu, alloc, peak, rate []float64
	for i, sm := range samples {
		fmt.Fprintf(o.log, "campaign %d seed %d: wall %.4f s, first trial %.4f s, cpu %.4f s, peak %.1f MB\n",
			i, runs[i].seed, sm.wall.Seconds(), sm.first.Seconds(), sm.cpu.Seconds(), float64(sm.peakMem)/1e6)
		wall = append(wall, sm.wall.Seconds())
		first = append(first, sm.first.Seconds())
		cpu = append(cpu, sm.cpu.Seconds())
		alloc = append(alloc, float64(sm.alloc)/1e6)
		peak = append(peak, float64(sm.peakMem)/1e6)
		rate = append(rate, float64(trialTotal(sm.res))/sm.wall.Seconds())
	}
	// Timings are scaled to the reference host speed; calib.go says why.
	c := median(calib)
	scale := calibRef.Seconds() / c
	fmt.Fprintf(o.log, "calibration: median %.4f ms over %d kernel runs, reference %.4f ms, timings scaled by %.4f\n",
		c*1e3, len(calib), calibRef.Seconds()*1e3, scale)
	fmt.Fprintf(o.log, "raw medians: campaign %.4f s, first trial %.4f s, cpu %.4f s, set-up %.6f s, %.4f trials/s\n",
		median(wall), median(first), median(cpu), median(setup), median(rate))
	n := len(samples)
	ms["campaign_s"] = metric{median(wall) * scale, "s", n}
	ms["trials_per_sec"] = metric{median(rate) / scale, "1/s", n}
	ms["first_trial_s"] = metric{median(first) * scale, "s", n}
	ms["cpu_s"] = metric{median(cpu) * scale, "s", n}
	ms["alloc_mb"] = metric{median(alloc), "MB", n}
	// A collector that falls behind on a busy host only ever adds to a
	// campaign's peak, so the leanest campaign's peak is the steady figure.
	ms["peak_rss_mb"] = metric{slices.Min(peak), "MB", n}
	ms["setup_s"] = metric{median(setup) * scale, "s", len(setup)}

	return verify(o, env, runs), nil
}

// tracedRun measures the per-layer metrics: set-up split by layer, one
// untraced and one traced campaign, the proof survey and the layer
// replays. Spans go to a file under o.outDir when it ends.
func tracedRun(o options, env envStamp, ms map[string]metric) (verdict, error) {
	s := o.shape
	t := newTracer()

	t.begin("setup")
	sts, err := setups(o, t)
	if err != nil {
		return verdict{}, err
	}
	var prog, refr []float64
	for _, st := range sts {
		prog = append(prog, float64(st.program.Nanoseconds())/1e6)
		refr = append(refr, float64(st.reference.Nanoseconds())/1e6)
	}
	t.end()
	refMS := median(refr)
	ms["asm.program_ms"] = metric{median(prog), "ms", len(prog)}
	ms["arch.reference_ms"] = metric{refMS, "ms", len(refr)}
	ms["arch.minsns_per_sec"] = metric{float64(sts[0].insns) / refMS / 1e3, "Minsn/s", len(refr)}

	t.begin("core.Run.untraced")
	plain, err := timedCampaign(campaignConfig(s, o.seed))
	t.end()
	if err != nil {
		return verdict{}, fmt.Errorf("campaign: %w", err)
	}

	cfg := campaignConfig(s, o.seed)
	var p campaignProbe
	p.arm(&cfg)
	t.begin("core.Run")
	p.start = time.Now()
	traced, err := core.Run(cfg)
	tracedWall := time.Since(p.start)
	if err != nil {
		return verdict{}, fmt.Errorf("traced campaign: %w", err)
	}
	trialSpans(t, &p)
	t.end()
	if len(p.res) == 0 {
		return verdict{}, fmt.Errorf("traced campaign resolved no trials")
	}
	tracedExport, err := exportJSON(traced)
	if err != nil {
		return verdict{}, err
	}
	campaignMetrics(ms, &p)

	var export []float64
	for i := 0; i < 5; i++ {
		t.begin("core.export")
		err1 := traced.WriteJSON(io.Discard)
		err2 := traced.WriteCSV(io.Discard)
		export = append(export, toMS(t.end()))
		if err1 != nil || err2 != nil {
			return verdict{}, fmt.Errorf("export: %v %v", err1, err2)
		}
	}
	ms["core.export_ms"] = metric{median(export), "ms", len(export)}

	t.begin("core.SurveyProofs")
	cov, err := core.SurveyProofs(campaignConfig(s, o.seed))
	survey := t.end()
	if err != nil {
		return verdict{}, fmt.Errorf("survey: %w", err)
	}
	ms["core.survey_s"] = metric{survey.Seconds(), "s", 1}
	cks := make([]uint64, len(cov))
	var proven, total uint64
	for i, c := range cov {
		cks[i] = c.Cycle
		proven += c.Proven
		total += c.Total
	}
	ms["prove.proven_frac"] = metric{float64(proven) / float64(total), "ratio", len(cov)}

	horizon := s.Horizon
	if horizon == 0 {
		horizon = 10_000 // core.Config default
	}
	meanCycles := ms["core.mean_cycles_per_trial"].Value
	rp, err := replayLayers(t, s, cks, horizon, max(1, int(meanCycles+0.5)))
	if err != nil {
		return verdict{}, err
	}
	layerMetrics(ms, rp)

	// What share of the untraced campaign the replayed phases explain,
	// and what tracing cost. Non-transient campaigns run their goldens
	// untraced, so their golden share is charged at the untraced step
	// cost. Trial work is the simulated cycles at the untraced step cost
	// plus one rewind per trial.
	stepNS := ms["uarch.step_ns_per_cycle"].Value
	golden := rp.golden.Seconds()
	if s.Model != nil {
		golden = float64(rp.goldenCycles) * stepNS / 1e9
	}
	trials := float64(len(p.res))
	trialWork := trials*meanCycles*stepNS/1e9 + trials*ms["uarch.rollback_us"].Value/1e6
	phases := refMS/1e3 + rp.measure.Seconds() + rp.pilot.Seconds() + golden +
		sum(rp.proveMS)/1e3 + trialWork
	ms["trace.phase_share"] = metric{phases / plain.wall.Seconds(), "ratio", 1}
	ms["trace.overhead_s"] = metric{(tracedWall - plain.wall).Seconds(), "s", 1}
	fmt.Fprintf(o.log, "untraced campaign %.4f s, traced campaign %.4f s\n", plain.wall.Seconds(), tracedWall.Seconds())

	v := verify(o, env, []campaignRun{{o.seed, plain.res, plain.export}, {o.seed, traced, tracedExport}})

	cur := counts{}
	for _, k := range countNames {
		cur[k] = ms[k].Value
	}
	if err := checkCounts(ledgerPath(o, env, o.seed, "counts.json"), cur); err != nil {
		v.problem("%v", err)
	}

	spans := filepath.Join(o.outDir, "spans", fmt.Sprintf("%s-seed%d.json", s.Name, o.seed))
	if err := t.write(spans, env); err != nil {
		return verdict{}, fmt.Errorf("spans: %w", err)
	}
	fmt.Fprintf(o.log, "spans %s\n", spans)
	return v, nil
}

// trialSpans turns the traced campaign's resolutions into spans: each
// trial runs from the previous resolution to its own. The first trial's
// span would cover the campaign's fixed cost, which first_trial_s reports,
// so it is left out.
func trialSpans(t *tracer, p *campaignProbe) {
	for i := 1; i < len(p.res); i++ {
		prev := p.res[i-1].at
		t.add("core.trial", p.start.Add(prev), p.res[i].at-prev, 1)
	}
}

// campaignMetrics derives the core layer's metrics from the traced
// campaign's resolutions and checkpoint completions.
func campaignMetrics(ms map[string]metric, p *campaignProbe) {
	n := len(p.res)
	var kinds [core.NumResolveKinds]int
	var steps int
	for _, r := range p.res {
		kinds[r.kind]++
		steps += r.steps
	}
	ms["core.mean_cycles_per_trial"] = metric{float64(steps) / float64(n), "cycles", n}
	for k, name := range resolveKindNames() {
		ms["core.resolved."+name] = metric{float64(kinds[k]), "count", n}
	}
	late := kinds[core.ResolveHorizon] + kinds[core.ResolveAnomaly]
	ms["core.early_resolved_frac"] = metric{float64(n-late) / float64(n), "ratio", n}

	var gaps []float64
	for i := 1; i < n; i++ {
		gaps = append(gaps, toUS(p.res[i].at-p.res[i-1].at))
	}
	ms["core.trial_us_p50"] = metric{quantile(gaps, 0.5), "us", len(gaps)}
	ms["core.trial_us_p99"] = metric{quantile(gaps, 0.99), "us", len(gaps)}
	var ckGaps []float64
	for i := 1; i < len(p.ckDone); i++ {
		ckGaps = append(ckGaps, (p.ckDone[i] - p.ckDone[i-1]).Seconds())
	}
	ms["core.checkpoint_s_p50"] = metric{quantile(ckGaps, 0.5), "s", len(ckGaps)}
	ms["core.trial_phase_s"] = metric{(p.res[n-1].at - p.res[0].at).Seconds(), "s", n}
}

// layerMetrics reports the layer replays.
func layerMetrics(ms map[string]metric, r replay) {
	ms["uarch.measure_s"] = metric{r.measure.Seconds(), "s", 1}
	ms["uarch.measure_cycles"] = metric{float64(r.measureCycles), "cycles", 1}
	ms["uarch.step_ns_per_cycle"] = metric{float64(r.measure.Nanoseconds()) / float64(r.measureCycles), "ns", int(r.measureCycles)}
	ms["uarch.pilot_s"] = metric{r.pilot.Seconds(), "s", 1}
	ms["uarch.snapshot_us"] = metric{median(r.snapshotUS), "us", len(r.snapshotUS)}
	ms["uarch.traced_step_ns_per_cycle"] = metric{float64(r.golden.Nanoseconds()) / float64(r.goldenCycles), "ns", int(r.goldenCycles)}
	ms["uarch.restore_checkpoint_us"] = metric{median(r.restoreCkUS), "us", len(r.restoreCkUS)}
	ms["uarch.rollback_us"] = metric{median(r.rollbackUS), "us", len(r.rollbackUS)}
	ms["mem.capture_image_us"] = metric{median(r.captureUS), "us", len(r.captureUS)}
	ms["mem.restore_image_us"] = metric{median(r.restoreImgUS), "us", len(r.restoreImgUS)}
	pages := 0
	for _, p := range r.pages {
		pages += p
	}
	ms["mem.image_pages"] = metric{float64(pages) / float64(len(r.pages)), "pages", len(r.pages)}
	ms["state.get_ns"] = metric{r.getNS, "ns", stateReps}
	ms["state.set_ns"] = metric{r.setNS, "ns", stateReps}
	ms["state.set_traced_ns"] = metric{r.setTracedNS, "ns", stateReps}
	ms["prove.compute_ms"] = metric{median(r.proveMS), "ms", len(r.proveMS)}
}

// commit is the git revision the benchmark was built from, when the build
// recorded one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// buildHash identifies the benchmark executable, so ledger entries of
// different builds never mix.
func buildHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:6])
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
