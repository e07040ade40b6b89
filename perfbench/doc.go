// Command perfbench is the repository's campaign benchmark. It times what a
// user of the fault injector waits for, a whole core.Run campaign, and in a
// separate traced run splits that time by layer.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload bench-shape --seed 4242 --seconds 35 --trace 0
//
// run.sh builds the benchmark (its own Go module, which reaches the engine
// through a replace of the parent module) into .bench_build/perfbench and
// runs it. Every campaign uses one worker (the pilot goroutine plus one
// trial worker, so two busy threads at most) and leaves every other
// core.Config field at its default. The last line of standard output is one
// JSON object: correct, attempted, failed and metrics. The lines before it
// are the environment stamp (nproc, GOMAXPROCS capped at nproc, Go version,
// git commit, build hash, workers, seed, traced or untraced), one line per
// metric with its unit and sample count, and failed_frac.
//
// # Workloads
//
// Each workload is a campaign shape; --seed is the campaign seed, which
// picks the checkpoints and the injected bits.
//
//   - bench-shape: Gzip, 8 checkpoints × 24 l+r trials, transient flips.
//     The fixed cost dominates: the measurement pass, the pilot and the
//     traced goldens are most of the wall time and trials a few percent.
//     Work on the fixed path (an image ladder, goldens without digests)
//     should move it; trial-loop work should not.
//   - paper-shape: Gzip, 24 checkpoints × (100 l+r + 100 l) trials,
//     transient flips: the paper's ~100 trials per checkpoint per
//     population, so two populations share each golden run. Trials, traced
//     goldens and the prover dominate. Shared golden trajectories and any
//     trial-loop or rewind speed-up should move it.
//   - intermittent-mcf: mcf, 4 checkpoints × 96 l+r trials,
//     StuckAt{Polarity: 1, Duration: 1000, Random: true}. Every cycle of a
//     trial re-asserts the fault beside the behavioural writes, goldens are
//     untraced, and the model forces the prover off and early stopping down
//     to taint-only, so trial stepping is most of the time on a
//     memory-bound kernel. Step and Elem.Set gains show most here; prover
//     or golden-sharing changes should not move it.
//
// BENCHMARK.json drives bench-shape and intermittent-mcf: their campaigns
// are short enough that a run of --seconds holds several, so each median
// rests on several samples. paper-shape is run by hand (--workload
// paper-shape): a campaign takes about 20 s on a shared two-core host, a
// run holds two of them
// beside a verification campaign as long again, and its first_trial_s, a
// median of two, spread by up to 31% across runs, past the largest bound
// (25%) the benchmark may set. Longer runs do not fit its time budget.
//
// Worker-count scaling is not a workload: a shared two-core machine cannot
// measure it steadily. Model accuracy against the paper is not measured, so
// no error figure is quoted.
//
// # End-to-end metrics (--trace 0)
//
// The run starts campaigns until --seconds have passed, two at least,
// times set-up 8 times and the calibration kernel 10 times before each,
// and reports medians over them (peak_rss_mb excepted) with their sample
// count. Campaign i runs on seed + i<<32, so one run spans several
// checkpoint schedules and a single cheap or dear schedule cannot set its
// medians; the same --seed always gives the same campaigns. Each campaign
// starts on a collected heap with freed memory returned to the system.
//
//	campaign_s      host wall time of one core.Run, scaled as below
//	trials_per_sec  trials completed / campaign_s
//	first_trial_s   core.Run call to the first trial resolution
//	cpu_s           process user+sys time per campaign (getrusage delta)
//	alloc_mb        bytes allocated per campaign (MemStats.TotalAlloc delta)
//	peak_rss_mb     peak memory the Go runtime holds from the system during
//	                a campaign (mapped minus released, sampled every 5 ms):
//	                the resident memory the campaign grows. The run reports
//	                its leanest campaign's peak, not the median: when the
//	                collector falls behind on a busy host the heap overshoots
//	                to several times its usual size, and that noise only
//	                ever raises a peak.
//	setup_s         Workload.Program + ComputeReference + first NewOnMemory
//
// The timings (campaign_s, trials_per_sec, first_trial_s, cpu_s, setup_s)
// are reported at a reference host speed. On a shared two-core host the
// machine's own speed swings by up to twice over a few minutes, longer
// than any run, so each timing is multiplied (a rate divided) by calibRef
// over the median time of a fixed calibration kernel the run times between
// its campaigns; calib.go gives the kernel and why it follows the
// simulator. The kernel is the benchmark's own code, so a change to the
// program moves the scaled figures as it moves the raw ones. The log
// prints the calibration and the raw medians beside the scaled metrics.
// The scaling narrows the spread between runs but does not remove it, so
// the timing bounds in BENCHMARK.json are wide; a claimed gain needs
// paired runs as the repository's measurement rules describe, not one
// comparison of medians.
//
// failed_frac, failed trials over attempted trials, is printed but is not a
// BENCHMARK.json metric: it is 0 on every correct run, and the result line's
// attempted and failed fields carry it.
//
// # Per-layer metrics (--trace 1)
//
// The traced run times set-up by step, runs one untraced and one traced
// campaign, surveys the prover with core.SurveyProofs (which also yields the
// campaign's checkpoint cycles), and replays the campaign's phases through
// each layer's public functions on that schedule. It does a fixed amount
// of work and ignores --seconds. Its timings are raw host times, not
// scaled: they are compared with each other within the run. "Moves" names the
// end-to-end metric a change to the layer should move, then the workload
// where it should and the one where it should not.
//
//	asm.program_ms, arch.reference_ms, arch.minsns_per_sec
//	    Workload.Program, ComputeReference. Moves setup_s, all workloads alike.
//	uarch.measure_s, uarch.measure_cycles, uarch.step_ns_per_cycle
//	    NewOnMemory + Run to halt. Moves first_trial_s and campaign_s;
//	    bench-shape / paper-shape barely.
//	uarch.pilot_s, uarch.snapshot_us
//	    Step to each checkpoint cycle, Snapshot there. Moves first_trial_s;
//	    bench-shape / intermittent-mcf.
//	uarch.traced_step_ns_per_cycle
//	    StartTrace + TraceCycle + Step over one Horizon+2000 window per
//	    checkpoint. Moves campaign_s; paper-shape / intermittent-mcf, whose
//	    goldens are untraced.
//	uarch.restore_checkpoint_us, uarch.rollback_us
//	    RestoreCheckpoint hopping checkpoint to checkpoint; Mark + RollbackTo
//	    around a run of the mean trial length. Moves trials_per_sec;
//	    paper-shape / bench-shape.
//	mem.capture_image_us, mem.restore_image_us, mem.image_pages
//	    CaptureImage at each checkpoint, RestoreImage hopping image to image,
//	    mean resident pages per image. Moves first_trial_s and alloc_mb;
//	    bench-shape / intermittent-mcf.
//	state.get_ns, state.set_ns, state.set_traced_ns
//	    Elem.Get / Elem.Set on prf.value, without and with a touch trace,
//	    journal off. Moves every step_ns above and so campaign_s;
//	    intermittent-mcf most.
//	prove.compute_ms, prove.proven_frac, core.survey_s
//	    prove.Compute with uarch.ProofHints over the golden window's trace
//	    (monitors unset); the survey's proven share; SurveyProofs wall time.
//	    Moves campaign_s; paper-shape / intermittent-mcf (prover off).
//	core.mean_cycles_per_trial, core.resolved.<kind>, core.early_resolved_frac
//	    From each trial's resolution in the traced campaign: simulated
//	    cycles, how it resolved (taint, quiescence, convergence, monitor,
//	    full-horizon, anomaly) and the share resolved before the horizon.
//	    Moves trials_per_sec; paper-shape and intermittent-mcf / bench-shape.
//	core.trial_us_p50, core.trial_us_p99, core.checkpoint_s_p50, core.trial_phase_s
//	    Gaps between successive trial resolutions on the single worker,
//	    gaps between checkpoint completions, first to last resolution.
//	    Moves campaign_s − first_trial_s; paper-shape / bench-shape.
//	core.export_ms
//	    WriteJSON + WriteCSV of the result. Moves campaign_s as faultsim
//	    sees it; no workload expected.
//	trace.phase_share
//	    reference + measure + pilot + goldens + prove + trial work (simulated
//	    cycles at the untraced step cost plus one rollback per trial) over
//	    the untraced campaign_s. The pilot runs beside the worker, so a
//	    share above 1 is overlap, not double counting of one thread's time.
//	    intermittent-mcf's goldens are charged at the untraced step cost.
//	trace.overhead_s
//	    traced minus untraced campaign wall time in this run.
//
// The counts (uarch.measure_cycles, core.mean_cycles_per_trial,
// core.resolved.*, prove.proven_frac, mem.image_pages) must repeat exactly
// across runs of one seed: the first traced run of a (workload, seed,
// build) records them in the ledger, later runs compare, and any drift
// fails the run. A later change may cite them as counts.
//
// # Reading the trace
//
// A traced run writes .bench_build/perfbench/spans/<workload>-seed<N>.json:
// the environment stamp, a summary and every span. A span is one timed call
// into a layer, recorded by this benchmark around the public function (the
// program itself is not instrumented): id, parent (0 for a root), name,
// start_us since the run began, dur_us, and n when one span covers n calls.
// Roots are setup, core.Run.untraced, core.Run (the traced campaign, with one
// core.trial child per trial after the first, spanning the gap since the
// previous resolution), core.export, core.SurveyProofs, uarch.measure,
// uarch.pilot, mem.restore, worker and state. The summary totals spans by
// name, heaviest first; self_ms is total_ms minus the time child spans
// cover, so for core.Run it is the campaign time outside trial gaps and for
// worker the time outside its restore, golden, prove and rollback calls.
//
// # Output check
//
// Once per invocation, untimed, the run makes a reference campaign on
// --seed with the model's runtime oracle armed (ProveCrossCheck for
// transient flips, ModelCrossCheck for intermittent-mcf), and bench-shape's
// with early stopping off, the semantic reference the repository's oracles
// use. Every measured campaign on --seed must export (WriteJSON) the
// reference's bytes exactly. A campaign on a derived seed must export the
// same bytes as every earlier run of that seed on the same build: the
// ledger under .bench_build/perfbench/ledger keeps a SHA-256 per
// (workload, seed, build). Every campaign's trial total must equal the
// configured total. A mismatch or oracle error counts that campaign's
// trials as failed; a contained anomaly counts as one failed trial.
// correct is true only with no failure and no count drift.
package main
