package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pipefault/internal/workload"
)

// goldenCampaignConfig is the campaign whose exports are pinned in
// testdata/export_golden.{json,csv}.
func goldenCampaignConfig() Config {
	return Config{
		Workload:    workload.Tiny,
		Checkpoints: 2,
		Horizon:     800,
		Populations: []Population{
			{Name: "l+r", Trials: 4},
			{Name: "l", LatchOnly: true, Trials: 3},
		},
		Seed:  11,
		Prove: ProveOff, // goldens pin the full-population draw sequence
	}
}

// TestWorkerBatchGoldens pins the engine's observable behavior at campaign
// scale: across 1, 4 and 8 workers and trial batches of 1, 8 and a whole
// checkpoint, every run must reproduce the checked-in export goldens (JSON
// and CSV) byte for byte. The goldens predate the undo-journal rewind, the
// checkpoint images and the work-stealing pool, so they pin that none of
// these mechanisms changed the simulator's observable behavior.
func TestWorkerBatchGoldens(t *testing.T) {
	type run struct {
		name string
		res  *Result
	}
	var runs []run
	for _, workers := range []int{1, 4, 8} {
		for _, batch := range []int{1, 8, 4 + 3} {
			cfg := goldenCampaignConfig()
			cfg.Workers = workers
			cfg.trialBatch = batch
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{fmt.Sprintf("w%d-batch%d", workers, batch), res})
		}
	}
	encoders := []struct {
		name   string
		golden string
		write  func(*Result, *bytes.Buffer) error
	}{
		{"json", "export_golden.json", func(r *Result, b *bytes.Buffer) error { return r.WriteJSON(b) }},
		{"csv", "export_golden.csv", func(r *Result, b *bytes.Buffer) error { return r.WriteCSV(b) }},
	}
	for _, enc := range encoders {
		t.Run(enc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", enc.golden))
			if err != nil {
				t.Fatalf("reading golden file: %v", err)
			}
			for _, run := range runs {
				var got bytes.Buffer
				if err := enc.write(run.res, &got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("%s: export deviates from golden\n--- got ---\n%s\n--- want ---\n%s",
						run.name, got.Bytes(), want)
				}
			}
		})
	}
}
