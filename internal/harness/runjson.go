package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/grace"
	"repro/internal/telemetry"
)

// RunSummary is the machine-readable record of one harness invocation —
// a training run, a chaos sweep, or a recovery battery. Drivers write one
// per run (results/<run>.json) so sweeps can be diffed and plotted without
// scraping stdout. The Telemetry field reuses the live registry's snapshot
// type, so a summary carries exactly what /metrics would have served at
// process exit.
type RunSummary struct {
	// Kind tags what produced the summary: "train", "chaos", or "recovery".
	Kind    string `json:"kind"`
	Workers int    `json:"workers,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Pass is the run-level verdict: every scenario (or the training run
	// itself) succeeded.
	Pass bool `json:"pass"`

	Train []TrainResultJSON `json:"train,omitempty"`
	Chaos []ChaosResult     `json:"chaos,omitempty"`
	// Recovery, Rejoin and Elastic hold the fault-scenario rows (RunScenario):
	// restart rows; rejoin rows; shrink and grow rows.
	Recovery  []ScenarioResult  `json:"recovery,omitempty"`
	Rejoin    []ScenarioResult  `json:"rejoin,omitempty"`
	Elastic   []ScenarioResult  `json:"elastic,omitempty"`
	Straggler []StragglerResult `json:"straggler,omitempty"`
	// Autotune holds the autotune battery's rows (RunAutotuneBench): the
	// tuned run first, then one static run per candidate.
	Autotune []AutotuneRow `json:"autotune,omitempty"`
	// Quality is the last training run's per-tensor compression-quality
	// table (achieved bits/param, EF residual L2, fault history); gracestat
	// renders it alongside the skew artifacts.
	Quality []grace.TensorQuality `json:"quality,omitempty"`

	// Telemetry is the process-wide counter/histogram snapshot at the time
	// the summary was written (nil when telemetry was not snapshotted).
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// TrainResultJSON is one training configuration's headline numbers.
type TrainResultJSON struct {
	Bench        string  `json:"bench"`
	Method       string  `json:"method"`
	BestQuality  float64 `json:"best_quality"`
	FinalQuality float64 `json:"final_quality"`
	Throughput   float64 `json:"throughput_samples_per_s"`
	BytesPerIter float64 `json:"bytes_per_iter"`
	RecvPerIter  float64 `json:"recv_per_iter"`
	Iters        int     `json:"iters"`
	VirtualMs    float64 `json:"virtual_ms"`
}

// TrainJSON flattens a trainer report into its JSON row.
func TrainJSON(bench, method string, rep *grace.Report) TrainResultJSON {
	return TrainResultJSON{
		Bench:        bench,
		Method:       method,
		BestQuality:  rep.BestQuality,
		FinalQuality: rep.FinalQuality,
		Throughput:   rep.Throughput,
		BytesPerIter: rep.BytesPerIter,
		RecvPerIter:  rep.RecvPerIter,
		Iters:        rep.Iters,
		VirtualMs:    ms(rep.TotalVirtualTime),
	}
}

// WriteRunSummaryDir writes the summary into dir as an auto-named artifact,
// RUN_<kind>.json (kind sanitized for the filesystem), and returns the path
// written. This is the directory counterpart of WriteRunSummary, so every CLI
// can take one artifacts directory instead of a per-tool file-path flag.
func WriteRunSummaryDir(dir string, s *RunSummary) (string, error) {
	kind := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s.Kind)
	if kind == "" {
		kind = "run"
	}
	path := filepath.Join(dir, "RUN_"+kind+".json")
	return path, WriteRunSummary(path, s)
}

// WriteRunSummary writes the summary as indented JSON, creating parent
// directories as needed.
func WriteRunSummary(path string, s *RunSummary) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("harness: creating run summary dir: %w", err)
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: encoding run summary: %w", err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("harness: writing run summary: %w", err)
	}
	return nil
}
