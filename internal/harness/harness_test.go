package harness

import (
	"bytes"
	"strings"
	"testing"

	_ "repro/internal/compress/all"
	"repro/internal/grace"
	"repro/internal/simnet"
)

func fastSweep() SweepConfig {
	return SweepConfig{Workers: 2, Net: simnet.TCP10G, Scale: 0.2, Seed: 3}
}

func TestTablePrintAndCSV(t *testing.T) {
	tab := &Table{Title: "demo", Header: []string{"a", "b"}}
	tab.AddRow("x", 1.5)
	tab.AddRow("long-label", 1234.5678)
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-label") {
		t.Fatalf("Print output missing content:\n%s", out)
	}
	buf.Reset()
	tab.CSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,b" {
		t.Fatalf("CSV output wrong:\n%s", buf.String())
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := &Table{Title: "q", Header: []string{"v"}}
	tab.AddRow(`with,comma "and quotes"`)
	var buf bytes.Buffer
	tab.CSV(&buf)
	if !strings.Contains(buf.String(), `"with,comma ""and quotes"""`) {
		t.Fatalf("CSV escaping wrong: %s", buf.String())
	}
}

func TestBenchmarksComplete(t *testing.T) {
	want := map[string]bool{
		"cnnsmall": true, "cnnmid": true, "cnnfast": true, "mlpwide": true,
		"cnnlarge": true, "ncf": true, "lstm": true, "segnet": true,
		"smalllayer": true,
	}
	bs := Benchmarks()
	if len(bs) != len(want) {
		t.Fatalf("suite has %d benchmarks, want %d", len(bs), len(want))
	}
	for _, b := range bs {
		if !want[b.Name] {
			t.Fatalf("unexpected benchmark %q", b.Name)
		}
		if b.NewModel == nil || b.NewDataset == nil || b.NewOptimizer == nil || b.NewEval == nil {
			t.Fatalf("%s has nil constructors", b.Name)
		}
		if b.ComputePerIter <= 0 {
			t.Fatalf("%s has no modeled compute time", b.Name)
		}
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestBenchmarkCommCharacter(t *testing.T) {
	// The stand-ins must preserve the paper's compute-vs-communication
	// split: for the dense baseline on 8 workers at 10 Gbps, comm time must
	// exceed modeled compute on the comm-bound benchmarks and stay well
	// under it on the compute-bound ones.
	cluster := simnet.NewCluster(simnet.TCP10G, 8)
	commBound := map[string]bool{"mlpwide": true, "ncf": true, "lstm": true, "smalllayer": true}
	for _, b := range Benchmarks() {
		model := b.NewModel(0)
		bytes := 4 * TrainingParams(model)
		// Dense baseline goes through allreduce.
		comm := cluster.AllreduceTime(bytes) * 1 // one fused estimate
		ratio := float64(comm) / float64(b.ComputePerIter)
		if commBound[b.Name] && ratio < 0.8 {
			t.Errorf("%s should be communication-bound (ratio %.2f)", b.Name, ratio)
		}
		if !commBound[b.Name] && b.Name != "cnnlarge" && ratio > 0.5 {
			t.Errorf("%s should be compute-bound (ratio %.2f)", b.Name, ratio)
		}
	}
}

func TestSuiteCoversRegistry(t *testing.T) {
	suite := Suite()
	seen := map[string]bool{}
	for _, s := range suite {
		seen[s.Name] = true
		meta, err := grace.Lookup(s.Name)
		if err != nil {
			t.Fatalf("suite method %q not registered: %v", s.Name, err)
		}
		if s.EF && meta.BuiltinEF {
			t.Errorf("%s: framework EF enabled on a builtin-EF method", s.Name)
		}
	}
	for _, name := range grace.Names() {
		if !seen[name] && !ExtensionMethods[name] {
			t.Errorf("registered method %q missing from evaluation suite", name)
		}
	}
}

func TestRunOneProducesReport(t *testing.T) {
	b, err := BenchmarkByName("ncf")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunOne(b, MethodSpec{Label: "Topk", Name: "topk", Opts: grace.Options{Ratio: 0.05}, EF: true}, fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iters == 0 || rep.Throughput <= 0 || rep.BestQuality <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	exps := Experiments()
	want := []string{"table1", "table2", "fig1", "fig6a", "fig6b", "fig6c", "fig6d",
		"fig6e", "fig6f", "fig7a", "fig7b", "fig7c", "fig8", "fig9", "fig10", "net25", "efablation"}
	for _, id := range want {
		if _, ok := exps[id]; !ok {
			t.Errorf("missing experiment %q", id)
		}
	}
	ids := ExperimentIDs()
	if len(ids) != len(exps) {
		t.Fatal("ExperimentIDs incomplete")
	}
}

func TestTable1Experiment(t *testing.T) {
	tables, err := Experiments()["table1"].Run(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatal("table1 should produce one table")
	}
	if len(tables[0].Rows) < 18 {
		t.Fatalf("Table I has %d rows, want >= 18", len(tables[0].Rows))
	}
	var buf bytes.Buffer
	tables[0].Print(&buf)
	for _, name := range []string{"qsgd", "topk", "powersgd", "sketchml"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("Table I missing %s", name)
		}
	}
}

func TestCodecLatency(t *testing.T) {
	durs, err := CodecLatency(MethodSpec{Label: "Topk", Name: "topk", Opts: grace.Options{Ratio: 0.01}}, 1<<14, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(durs) != 3 {
		t.Fatalf("want 3 reps, got %d", len(durs))
	}
	for _, d := range durs {
		if d <= 0 {
			t.Fatal("non-positive latency")
		}
	}
}

func TestCodecLatencyAllMethods(t *testing.T) {
	for _, spec := range Suite() {
		if spec.Name == "none" {
			continue
		}
		if _, err := CodecLatency(spec, 1<<12, 1, 1); err != nil {
			t.Errorf("%s: %v", spec.Label, err)
		}
	}
}

func TestSweepExperimentSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment is slow")
	}
	tables, err := runSweep("ncf", "Figure 6d", fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	if len(tab.Rows) != len(Suite()) {
		t.Fatalf("sweep has %d rows, want %d", len(tab.Rows), len(Suite()))
	}
	// Baseline row must have relative throughput and volume exactly 1.
	if tab.Rows[0][2] != "1.0000" || tab.Rows[0][3] != "1.0000" {
		t.Fatalf("baseline normalization wrong: %v", tab.Rows[0])
	}
}
