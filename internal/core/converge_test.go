package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"pipefault/internal/workload"
)

// TestConvergeEquivalenceMatrix is the trial-level oracle of convergence
// termination: at 1 and 4 workers, the converge-terminated campaign must
// be bit-identical — trial for trial, including Cycles, scatter points and
// golden measurements — to the full-horizon run. The export-golden pin of
// both modes is TestEarlyStopEquivalenceMatrix.
func TestConvergeEquivalenceMatrix(t *testing.T) {
	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("w%d", workers)
		conv := earlyStopCampaign(t, EarlyStopConverge, workers)
		full := earlyStopCampaign(t, EarlyStopOff, workers)
		resultsEqual(t, name+"-conv-vs-off", conv, full)
	}
}

// convergeSearch runs converge-mode trials over a deterministic enumeration
// of injectable bits until pick returns true, returning that trial and its
// instrumentation. The worker RNG is never involved: targeted trials take
// explicit BitRefs, so convergence termination cannot perturb the campaign
// draw sequence by construction (and the equivalence matrix pins it
// end-to-end).
func convergeSearch(t *testing.T, en *worker, g *goldenRun,
	pick func(tr Trial, kind ResolveKind, steps int) bool) (Trial, string, int, int) {
	t.Helper()
	var kind ResolveKind
	var steps int
	en.cfg.OnTrialResolved = func(k ResolveKind, s int) { kind, steps = k, s }
	defer func() { en.cfg.OnTrialResolved = nil }()
	for _, e := range en.m.F.Elems() {
		if !e.Injectable() {
			continue
		}
		entries := e.Entries()
		if entries > 8 {
			entries = 8
		}
		for i := 0; i < entries; i++ {
			for _, bit := range []int{0, e.Width() - 1} {
				tr := runTargeted(t, en, g, e.Name(), i, bit)
				if pick(tr, kind, steps) {
					return tr, e.Name(), i, bit
				}
			}
		}
	}
	t.Fatal("no trial matching the predicate found in the search population")
	return Trial{}, "", 0, 0
}

// TestConvergeTrialStopsAtReconvergence: a trial whose corruption is
// overwritten mid-flight re-converges to the golden trajectory; the
// composite digest detects it the same cycle, the trial resolves as
// convergence after exactly that many simulated steps, and the full-horizon
// loop agrees on every field.
func TestConvergeTrialStopsAtReconvergence(t *testing.T) {
	en, g := newTestEngine(t, workload.Tiny, 600)
	tr, elem, entry, bit := convergeSearch(t, en, g,
		func(tr Trial, kind ResolveKind, steps int) bool {
			return kind == ResolveConverge && steps > 0 && steps == int(tr.Cycles)
		})
	if tr.Cycles <= 0 || int(tr.Cycles) >= en.cfg.Horizon {
		t.Fatalf("re-converged trial reports Cycles=%d, want within (0, horizon)", tr.Cycles)
	}
	en.cfg.EarlyStop = EarlyStopOff
	slow := runTargeted(t, en, g, elem, entry, bit)
	if tr != slow {
		t.Errorf("%s[%d] bit %d: converge %+v != full horizon %+v", elem, entry, bit, tr, slow)
	}
}

// TestConvergeCertificateSkipsTail: the re-convergence certificate resolves
// a diverged-but-frozen trial at a stride boundary — fewer simulated steps
// than the reported Cycles (the tail is replayed closed-form from the
// golden monitors) — and the full-horizon loop agrees on every field.
func TestConvergeCertificateSkipsTail(t *testing.T) {
	en, g := newTestEngine(t, workload.Tiny, 600)
	tr, elem, entry, bit := convergeSearch(t, en, g,
		func(tr Trial, kind ResolveKind, steps int) bool {
			return kind == ResolveConverge && steps > 0 && steps < int(tr.Cycles)
		})
	var steps int
	en.cfg.OnTrialResolved = func(k ResolveKind, s int) { steps = s }
	fast := runTargeted(t, en, g, elem, entry, bit)
	en.cfg.OnTrialResolved = nil
	if steps%convStride != 0 {
		t.Errorf("certificate fired after %d steps, not a convStride=%d boundary", steps, convStride)
	}
	en.cfg.EarlyStop = EarlyStopOff
	slow := runTargeted(t, en, g, elem, entry, bit)
	if fast != slow {
		t.Errorf("%s[%d] bit %d: certificate %+v != full horizon %+v", elem, entry, bit, fast, slow)
	}
	if fast != tr {
		t.Errorf("certificate trial not reproducible: %+v then %+v", tr, fast)
	}
}

// TestConvergeCopyClosureDrain: the full-flush recovery drain
// wholesale-copies architectural renaming state over speculative state, and
// those copies are traced as edges rather than behavioral touches. A
// corrupted arch-RAT entry for a register the program never uses is
// re-copied into the spec RAT on every flush; the certificate must chase
// the copy edge (the spec side is never behaviorally read either) and
// resolve the trial at an early stride boundary instead of simulating the
// full horizon — with the full-horizon loop agreeing on every field.
func TestConvergeCopyClosureDrain(t *testing.T) {
	en, g := newTestEngine(t, workload.Gzip, 2000)
	var kind ResolveKind
	var steps int
	en.cfg.OnTrialResolved = func(k ResolveKind, s int) { kind, steps = k, s }
	defer func() { en.cfg.OnTrialResolved = nil }()
	arch := en.m.F.Elem("rat.arch")
	spec := en.m.F.Elem("rat.spec")
	if arch == nil || spec == nil {
		t.Fatal("renaming elements not found")
	}
	found := false
	for i := 0; i < arch.Entries(); i++ {
		// Only the drain-coupled case matters here: the golden run must have
		// copied this arch entry into its spec twin after the first stride
		// boundary, or the plain frozen-delta certificate already covers it.
		if g.trace.CopyDst[arch.EntryIndex(i)] != spec.EntryIndex(i)+1 ||
			g.trace.LastCopy[spec.EntryIndex(i)] <= convStride {
			continue
		}
		fast := runTargeted(t, en, g, "rat.arch", i, 0)
		if kind != ResolveConverge || steps >= int(fast.Cycles) {
			continue
		}
		found = true
		en.cfg.EarlyStop = EarlyStopOff
		slow := runTargeted(t, en, g, "rat.arch", i, 0)
		en.cfg.EarlyStop = EarlyStopConverge
		if fast != slow {
			t.Errorf("rat.arch[%d] bit 0: certificate %+v != full horizon %+v", i, fast, slow)
		}
		break
	}
	if !found {
		t.Fatal("no drain-coupled arch-RAT trial certified; copy-closure chain inert")
	}
}

// TestConvergeJournalIdentityExcluded: EarlyStop never perturbs results, so
// it must stay OUT of the campaign journal identity — a journal written
// under one mode is resumable under any other.
func TestConvergeJournalIdentityExcluded(t *testing.T) {
	mk := func(es EarlyStopMode) journalHeader {
		cfg := stealTestConfig()
		cfg.EarlyStop = es
		cfg.setDefaults()
		return journalHeaderFor(&cfg)
	}
	want := mk(EarlyStopConverge)
	for _, es := range []EarlyStopMode{EarlyStopConverge, EarlyStopOff} {
		if h := mk(es); !h.equal(want) {
			t.Errorf("journal identity differs between EarlyStop %v and converge: %+v vs %+v", es, h, want)
		}
	}
}

// TestResumeFlipsEarlyStopMode: a campaign started under the full-horizon
// loop, killed mid-flight, and resumed under convergence termination must
// reproduce the uninterrupted run byte for byte — the journal splices
// full-horizon units into a converge-mode completion and nothing shows.
func TestResumeFlipsEarlyStopMode(t *testing.T) {
	cfg := stealTestConfig()
	cfg.EarlyStop = EarlyStopOff
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, baseCSV := exportBytes(t, base)

	jcfg := cfg
	jcfg.JournalPath = filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jcfg.OnProgress = func(p Progress) {
		if p.TrialsDone >= 1 {
			cancel()
		}
	}
	if _, err := RunContext(ctx, jcfg); err != nil {
		var cerr *CanceledError
		if !errors.As(err, &cerr) {
			t.Fatalf("interrupted run: %v", err)
		}
	}

	jcfg.OnProgress = nil
	jcfg.EarlyStop = EarlyStopConverge
	resumed, err := Resume(context.Background(), jcfg)
	if err != nil {
		t.Fatalf("resume under converge mode: %v", err)
	}
	gotJSON, gotCSV := exportBytes(t, resumed)
	if !bytes.Equal(gotJSON, baseJSON) {
		t.Errorf("mode-flipped resume JSON differs from the uninterrupted run")
	}
	if !bytes.Equal(gotCSV, baseCSV) {
		t.Errorf("mode-flipped resume CSV differs from the uninterrupted run")
	}
}

// TestConvergeModeStrings pins the flag-facing name, parser and default.
func TestConvergeModeStrings(t *testing.T) {
	if EarlyStopConverge != 0 {
		t.Error("EarlyStopConverge must be the zero value (the Config default)")
	}
	if EarlyStopConverge.String() != "converge" {
		t.Errorf("EarlyStopConverge.String() = %q", EarlyStopConverge)
	}
	got, err := ParseEarlyStopMode("converge")
	if err != nil || got != EarlyStopConverge {
		t.Errorf("ParseEarlyStopMode(converge) = %v, %v", got, err)
	}
	for k, want := range map[ResolveKind]string{
		ResolveTaint: "taint", ResolveQuiesce: "quiescence",
		ResolveConverge: "convergence", ResolveMonitor: "monitor",
		ResolveHorizon: "full-horizon", ResolveAnomaly: "anomaly",
	} {
		if k.String() != want {
			t.Errorf("ResolveKind(%d).String() = %q, want %q", k, k, want)
		}
	}
}

// TestMonitorReplay pins the closed-form monitor replay that dead-entry
// resolution, quiescence and the convergence certificate share: firstEvent
// resolves same-cycle ties in the trial loop's check order (exception,
// locked, iTLB, match) and honors the horizon inclusively, and
// firstLocked/firstITLB continue a streak carried in from cycle from.
func TestMonitorReplay(t *testing.T) {
	const limit = 100
	events := []struct {
		name                           string
		excAt, lockedAt, itlbAt, match uint64
		wantOut                        Outcome
		wantMode                       FailureMode
		wantAt                         uint64
	}{
		{"all-tie", 10, 10, 10, 10, OutSDC, FailDTLB, 10},
		{"locked-beats-itlb-and-match", 0, 10, 10, 10, OutTerminated, FailLocked, 10},
		{"itlb-beats-match", 0, 0, 10, 10, OutSDC, FailITLB, 10},
		{"match-alone", 0, 0, 0, 10, OutMatch, FailNone, 10},
		{"earliest-wins", 12, 11, 13, 9, OutMatch, FailNone, 9},
		{"event-at-limit", 0, limit, 0, 0, OutTerminated, FailLocked, limit},
		{"event-past-limit", limit + 1, limit + 1, limit + 1, limit + 1, OutGray, FailNone, limit},
		{"no-event", 0, 0, 0, 0, OutGray, FailNone, limit},
	}
	for _, tc := range events {
		out, mode, at := firstEvent(limit, tc.excAt, FailDTLB, tc.lockedAt, tc.itlbAt, tc.match)
		if out != tc.wantOut || mode != tc.wantMode || at != tc.wantAt {
			t.Errorf("firstEvent %s = (%v, %v, %d), want (%v, %v, %d)",
				tc.name, out, mode, at, tc.wantOut, tc.wantMode, tc.wantAt)
		}
	}

	// Cycles 1..320: instructions retire at cycle 60 only; the fetch stalls
	// on an illegal address at cycles 40..75 and from 90 on.
	const n = 320
	retire := make([]uint64, (n+63)/64)
	illegal := make([]uint64, (n+63)/64)
	setBitAt(retire, 60)
	for c := uint64(1); c <= n; c++ {
		if c >= 40 && c <= 75 || c >= 90 {
			setBitAt(illegal, c)
		}
	}
	replays := []struct {
		name        string
		fn          func([]uint64, uint64, int, uint64) uint64
		bits        []uint64
		from        uint64
		streak      int
		limit, want uint64
	}{
		{"locked-carried-streak", firstLocked, retire, 50, lockedCycles - 5, n, 55},
		{"locked-streak-reset", firstLocked, retire, 58, lockedCycles - 2, n, 60 + lockedCycles},
		{"locked-fresh-at-limit", firstLocked, retire, 60, 0, 60 + lockedCycles, 60 + lockedCycles},
		{"locked-fresh-past-limit", firstLocked, retire, 60, 0, 60 + lockedCycles - 1, 0},
		{"itlb-from-zero", firstITLB, illegal, 0, 0, n, 40 + itlbStallCycles - 1},
		{"itlb-carried-streak", firstITLB, illegal, 45, itlbStallCycles - 1, n, 46},
		{"itlb-streak-reset", firstITLB, illegal, 74, itlbStallCycles - 2, n, 90 + itlbStallCycles - 1},
		{"itlb-at-limit", firstITLB, illegal, 80, 0, 90 + itlbStallCycles - 1, 90 + itlbStallCycles - 1},
		{"itlb-past-limit", firstITLB, illegal, 80, 0, 90 + itlbStallCycles - 2, 0},
	}
	for _, tc := range replays {
		if got := tc.fn(tc.bits, tc.from, tc.streak, tc.limit); got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, got, tc.want)
		}
	}
}
