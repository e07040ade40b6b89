package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// exportBytes renders a result's JSON and CSV exports, the byte-level
// equivalence oracle for the resume tests.
func exportBytes(t *testing.T, r *Result) (jsonB, csvB []byte) {
	t.Helper()
	var j, c bytes.Buffer
	if err := r.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes()
}

// TestResumeEquivalence: kill a journaled campaign mid-flight, then Resume
// it — the final exports must be byte-identical to an uninterrupted run,
// at any worker count, and the partial result flushed
// at cancellation must contain only whole checkpoints. A torn final
// journal line (the crash wrote half a record) must be tolerated.
func TestResumeEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			cfg := stealTestConfig()
			cfg.Workers = workers
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
			partial, err := RunContext(ctx, jcfg)
			if err != nil {
				// The usual case: the cancel landed before the engine
				// drained, and the partial result holds only the
				// checkpoints that completed.
				var cerr *CanceledError
				if !errors.As(err, &cerr) {
					t.Fatalf("interrupted run: %v", err)
				}
				if partial == nil {
					t.Fatal("cancellation returned no partial result")
				}
				perCk := 0
				for _, p := range jcfg.Populations {
					perCk += p.Trials
				}
				got := 0
				for _, p := range partial.Pops { //pipelint:unordered-ok summing counts is order-independent
					got += p.Total()
				}
				if got%perCk != 0 {
					t.Errorf("partial result holds %d trials, not a whole number of checkpoints (%d per ck)", got, perCk)
				}
				if int64(got) != cerr.TrialsDone {
					t.Errorf("CanceledError reports %d trials done, partial result holds %d", cerr.TrialsDone, got)
				}
			}

			// Emulate a torn final record: the process died mid-write.
			f, err := os.OpenFile(jcfg.JournalPath, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(`{"ck":0,"trials":[{"o":`); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			jcfg.OnProgress = nil
			resumed, err := Resume(context.Background(), jcfg)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			gotJSON, gotCSV := exportBytes(t, resumed)
			if !bytes.Equal(gotJSON, baseJSON) {
				t.Errorf("resumed JSON export differs from the uninterrupted run:\n--- base ---\n%s\n--- resumed ---\n%s", baseJSON, gotJSON)
			}
			if !bytes.Equal(gotCSV, baseCSV) {
				t.Errorf("resumed CSV export differs from the uninterrupted run:\n--- base ---\n%s\n--- resumed ---\n%s", baseCSV, gotCSV)
			}
		})
	}
}

// TestResumeCompleteJournal: resuming a campaign whose journal already
// covers every unit replays the result without running a single trial.
func TestResumeCompleteJournal(t *testing.T) {
	cfg := stealTestConfig()
	cfg.Workers = 2
	cfg.JournalPath = filepath.Join(t.TempDir(), "campaign.jsonl")
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, baseCSV := exportBytes(t, base)

	var ran atomic.Int32
	testTrialHook = func(ck, idx, attempt int) { ran.Add(1) }
	defer func() { testTrialHook = nil }()
	resumed, err := Resume(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("resume of a complete journal re-ran %d trials", n)
	}
	gotJSON, gotCSV := exportBytes(t, resumed)
	if !bytes.Equal(gotJSON, baseJSON) || !bytes.Equal(gotCSV, baseCSV) {
		t.Error("replayed exports differ from the original run")
	}
}

// TestResumeLegacyJournal: testdata/legacy_journal.jsonl was written by an
// earlier engine that journaled each checkpoint as a single record holding
// both the head (validInsns, proven strata) and the checkpoint's whole
// trial run. Journals of that form still exist on disk, so resuming one
// must (a) run no trials when it is complete and (b) reach the
// uninterrupted run's exports byte for byte from a truncated copy.
func TestResumeLegacyJournal(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := stealTestConfig() // the campaign the fixture journals
	cfg.Workers = 2
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, baseCSV := exportBytes(t, base)

	lines := bytes.SplitAfter(legacy, []byte("\n"))
	if len(lines) < 4 || !bytes.Contains(lines[1], []byte(`"head":true`)) || !bytes.Contains(lines[1], []byte(`"trials":[`)) {
		t.Fatal("fixture is not a header plus combined head-and-trials records")
	}
	for _, tc := range []struct {
		name    string
		journal []byte
		wantRan bool
	}{
		{"complete", legacy, false},
		// Header plus the first checkpoint's record, then a torn line.
		{"truncated", append(bytes.Join(lines[:2], nil), lines[2][:len(lines[2])/2]...), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jcfg := cfg
			jcfg.JournalPath = filepath.Join(t.TempDir(), "campaign.jsonl")
			if err := os.WriteFile(jcfg.JournalPath, tc.journal, 0o644); err != nil {
				t.Fatal(err)
			}
			var ran atomic.Int32
			testTrialHook = func(ck, idx, attempt int) {
				if ck == 0 {
					t.Errorf("resume re-ran trial %d of journal-complete checkpoint 0", idx)
				}
				ran.Add(1)
			}
			defer func() { testTrialHook = nil }()
			resumed, err := Resume(context.Background(), jcfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := ran.Load(); (n > 0) != tc.wantRan {
				t.Errorf("resume ran %d trials, want any: %v", n, tc.wantRan)
			}
			gotJSON, gotCSV := exportBytes(t, resumed)
			if !bytes.Equal(gotJSON, baseJSON) {
				t.Errorf("resumed JSON export differs from the uninterrupted run:\n--- base ---\n%s\n--- resumed ---\n%s", baseJSON, gotJSON)
			}
			if !bytes.Equal(gotCSV, baseCSV) {
				t.Error("resumed CSV export differs from the uninterrupted run")
			}
		})
	}
}

// TestResumeJournalMismatch: a journal written under a different campaign
// identity (here, another seed) must be refused, not silently replayed.
func TestResumeJournalMismatch(t *testing.T) {
	cfg := stealTestConfig()
	cfg.JournalPath = filepath.Join(t.TempDir(), "campaign.jsonl")
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	_, err := Resume(context.Background(), cfg)
	if !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("resume with a different seed: err = %v, want ErrJournalMismatch", err)
	}
}

// TestResumeRequiresJournal: Resume without a journal path is a config
// error, caught before any simulation work.
func TestResumeRequiresJournal(t *testing.T) {
	cfg := stealTestConfig()
	_, err := Resume(context.Background(), cfg)
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "JournalPath" {
		t.Fatalf("err = %v, want a ConfigError on JournalPath", err)
	}
}
