package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	_ "repro/internal/compress/all"
)

// TestAutotuneBeatsStatics is the battery's acceptance check: on the
// small-layer model at the communication-bound system point, the tuned run's
// steady-state modeled step time must not exceed the best static candidate's.
// Every quantity in the comparison is deterministic (modeled comm + fixed
// compute), so this is a hard inequality, not a statistical one.
func TestAutotuneBeatsStatics(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 5 full runs")
	}
	b, err := BenchmarkByName("smalllayer")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAutotuneBench(b, DefaultAutotuneSweep())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		t.Logf("%-12s step=%v switches=%d policy=%v", r.Label, r.StepTime, r.Switches, r.FinalPolicy)
	}
	if res.Tuned.StepTime > res.BestStatic.StepTime {
		t.Fatalf("tuned steady-state step %v exceeds best static %q at %v",
			res.Tuned.StepTime, res.BestStatic.Label, res.BestStatic.StepTime)
	}
	if res.Tuned.Switches == 0 {
		t.Fatal("tuned run recorded no method switches (warmup alone should switch)")
	}
	if len(res.Tuned.FinalPolicy) == 0 {
		t.Fatal("tuned run reported no final policy")
	}

	// The rows as gracetrain -autotune commits them: RUN_autotune.json must
	// carry every row's modeled step time under the documented keys, the tuned
	// row first and no slower than any static row.
	path, err := WriteRunSummaryDir(t.TempDir(), &RunSummary{Kind: "autotune", Pass: true, Autotune: res.Rows})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Autotune []map[string]any `json:"autotune"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "RUN_autotune.json" || len(back.Autotune) != len(res.Rows) {
		t.Fatalf("%s carries %d autotune rows, want %d in RUN_autotune.json", path, len(back.Autotune), len(res.Rows))
	}
	for i, row := range back.Autotune {
		for _, key := range []string{"label", "tuned", "step_ns", "switches", "final_policy"} {
			if _, ok := row[key]; !ok {
				t.Fatalf("autotune row %d lacks %q: %v", i, key, row)
			}
		}
		if len(row) != 5 {
			t.Fatalf("autotune row %d has unexpected keys: %v", i, row)
		}
		if row["tuned"] != (i == 0) || row["step_ns"] != float64(res.Rows[i].StepTime) ||
			row["step_ns"].(float64) < back.Autotune[0]["step_ns"].(float64) {
			t.Fatalf("autotune row %d = %v, want tuned=%v step_ns=%d >= the tuned row's", i, row, i == 0, res.Rows[i].StepTime)
		}
	}
}

// TestWriteRunSummaryDirNamesFileByKind: a compound kind is sanitized into
// one RUN_<kind>.json file name, and the file round-trips.
func TestWriteRunSummaryDirNamesFileByKind(t *testing.T) {
	path, err := WriteRunSummaryDir(t.TempDir(), &RunSummary{Kind: "chaos+elastic/train", Workers: 3, Pass: true})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "RUN_chaos_elastic_train.json" {
		t.Fatalf("path = %s", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RunSummary
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != "chaos+elastic/train" || back.Workers != 3 || !back.Pass {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}
