package harness

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/grace"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID          string
	Paper       string
	Description string
	Run         func(sc SweepConfig) ([]*Table, error)
}

// Experiments lists every reproducible table/figure keyed by id (DESIGN.md
// §5).
func Experiments() map[string]Experiment {
	exps := []Experiment{
		{ID: "table1", Paper: "Table I", Description: "taxonomy of implemented compression methods", Run: runTable1},
		{ID: "table2", Paper: "Table II", Description: "benchmark suite and baseline quality", Run: runTable2},
		{ID: "fig1", Paper: "Figure 1", Description: "accuracy vs epochs and vs wall time (VGG16 stand-in, 8 workers, 25 Gbps)", Run: runFig1},
		{ID: "fig8", Paper: "Figure 8", Description: "compress+decompress latency by input size", Run: runFig8},
		{ID: "fig9", Paper: "Figure 9", Description: "throughput TCP vs RDMA (ResNet-9 stand-in)", Run: runFig9},
		{ID: "fig10", Paper: "Figure 10", Description: "quality vs relative throughput at 1 Gbps (ResNet-50 stand-in)", Run: runFig10},
		{ID: "net25", Paper: "§V-A", Description: "throughput delta from 10 to 25 Gbps", Run: runNet25},
		{ID: "efablation", Paper: "§V-B EF findings", Description: "error-feedback on/off quality ablation", Run: runEFAblation},
		{ID: "huffablation", Paper: "related work [81]", Description: "Huffman entropy-coding stage ablation", Run: runHuffAblation},
		{ID: "packing", Paper: "§V-C footnote", Description: "bit-packing vs unpacked representation ablation", Run: runPackingAblation},
		{ID: "psablation", Paper: "§IV-A", Description: "ring allreduce vs parameter-server topology", Run: runPSAblation},
		{ID: "localsgd", Paper: "Table I (Qsparse-local-SGD)", Description: "compressed synchronization every H local steps", Run: runLocalSGD},
	}
	fig6 := []struct {
		id, bench, paper string
	}{
		{"fig6a", "cnnsmall", "Figure 6a"},
		{"fig6b", "cnnmid", "Figure 6b"},
		{"fig6c", "cnnlarge", "Figure 6c"},
		{"fig6d", "ncf", "Figure 6d"},
		{"fig6e", "lstm", "Figure 6e"},
		{"fig6f", "segnet", "Figure 6f"},
	}
	for _, f := range fig6 {
		f := f
		exps = append(exps, Experiment{
			ID: f.id, Paper: f.paper,
			Description: "quality vs relative throughput, " + f.bench,
			Run: func(sc SweepConfig) ([]*Table, error) {
				return runSweep(f.bench, f.paper, sc)
			},
		})
	}
	fig7 := []struct {
		id, bench, paper string
	}{
		{"fig7a", "cnnlarge", "Figure 7a"},
		{"fig7b", "lstm", "Figure 7b"},
		{"fig7c", "ncf", "Figure 7c"},
	}
	for _, f := range fig7 {
		f := f
		exps = append(exps, Experiment{
			ID: f.id, Paper: f.paper,
			Description: "quality vs relative data volume, " + f.bench,
			Run: func(sc SweepConfig) ([]*Table, error) {
				return runSweep(f.bench, f.paper, sc)
			},
		})
	}
	out := make(map[string]Experiment, len(exps))
	for _, e := range exps {
		out[e.ID] = e
	}
	return out
}

// ExperimentIDs returns sorted experiment ids.
func ExperimentIDs() []string {
	m := Experiments()
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// --- Table I ---

func runTable1(sc SweepConfig) ([]*Table, error) {
	t := &Table{
		Title:  "Table I: classification of implemented gradient compression methods",
		Header: []string{"method", "class", "|g~|_0", "nature", "EF-on", "builtin-EF", "strategy", "reference"},
	}
	for _, m := range grace.All() {
		c, err := m.New(grace.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(m.Name, m.Class, m.Output, m.Nature, yesNo(m.DefaultEF), yesNo(m.BuiltinEF), c.Strategy().String(), m.Reference)
	}
	return []*Table{t}, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// --- Table II ---

func runTable2(sc SweepConfig) ([]*Table, error) {
	t := &Table{
		Title: "Table II: benchmarks and baseline quality (scaled stand-ins)",
		Header: []string{"benchmark", "stands in for", "task", "params", "grad vectors",
			"epochs", "metric", "baseline quality"},
	}
	for _, b := range Benchmarks() {
		rep, err := RunOne(b, MethodSpec{Label: "Baseline", Name: "none"}, sc)
		if err != nil {
			return nil, err
		}
		model := b.NewModel(0)
		t.AddRow(b.Name, b.PaperModel, b.Task, TrainingParams(model), GradientVectors(model),
			b.ScaledEpochs(sc.Scale), b.Metric, rep.BestQuality)
	}
	return []*Table{t}, nil
}

// --- Figure 1 ---

func runFig1(sc SweepConfig) ([]*Table, error) {
	b, err := BenchmarkByName("mlpwide")
	if err != nil {
		return nil, err
	}
	sc.Net = simnet.TCP25G
	specs := []MethodSpec{
		{Label: "Baseline", Name: "none"},
		{Label: "Randk(0.01)", Name: "randomk", Opts: grace.Options{Ratio: 0.01}, EF: true},
		{Label: "8-bit", Name: "eightbit", EF: true},
	}
	epochsT := &Table{
		Title:  "Figure 1a: top-1 accuracy vs epochs (VGG16 stand-in, 8 workers, 25 Gbps)",
		Header: []string{"epoch", "Baseline", "Randk(0.01)", "8-bit"},
	}
	timeT := &Table{
		Title:  "Figure 1b: top-1 accuracy vs virtual wall time",
		Header: []string{"epoch", "Baseline t(s)", "Baseline acc", "Randk t(s)", "Randk acc", "8-bit t(s)", "8-bit acc"},
	}
	reps := make([]*grace.Report, len(specs))
	for i, spec := range specs {
		reps[i], err = RunOne(b, spec, sc)
		if err != nil {
			return nil, err
		}
	}
	epochs := len(reps[0].EpochQuality)
	for e := 0; e < epochs; e++ {
		epochsT.AddRow(e+1, reps[0].EpochQuality[e], reps[1].EpochQuality[e], reps[2].EpochQuality[e])
		timeT.AddRow(e+1,
			reps[0].EpochVirtualTime[e].Seconds(), reps[0].EpochQuality[e],
			reps[1].EpochVirtualTime[e].Seconds(), reps[1].EpochQuality[e],
			reps[2].EpochVirtualTime[e].Seconds(), reps[2].EpochQuality[e])
	}
	return []*Table{epochsT, timeT}, nil
}

// --- Figures 6 & 7 (shared sweep) ---

func runSweep(bench, paper string, sc SweepConfig) ([]*Table, error) {
	b, err := BenchmarkByName(bench)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("%s: %s (%s) — quality vs relative throughput and data volume, %d workers, %s",
			paper, b.Name, b.PaperModel, sc.Workers, sc.Net.Name),
		Header: []string{"method", b.Metric, "rel throughput", "rel volume/iter", "throughput (samples/s)", "bytes/iter"},
	}
	var baseTP, baseVol float64
	for _, spec := range Suite() {
		rep, err := RunOne(b, spec, sc)
		if err != nil {
			return nil, err
		}
		if spec.Name == "none" {
			baseTP = rep.Throughput
			baseVol = rep.BytesPerIter
		}
		t.AddRow(spec.Label, rep.BestQuality,
			metrics.Relative(rep.Throughput, baseTP),
			metrics.Relative(rep.BytesPerIter, baseVol),
			rep.Throughput, rep.BytesPerIter)
	}
	return []*Table{t}, nil
}

// --- Figure 9 ---

func runFig9(sc SweepConfig) ([]*Table, error) {
	b, err := BenchmarkByName("cnnfast")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 9: throughput TCP vs RDMA at 25 Gbps (ResNet-9 stand-in)",
		Header: []string{"method", "TCP (samples/s)", "RDMA (samples/s)", "RDMA/TCP"},
	}
	for _, spec := range Suite() {
		scTCP := sc
		scTCP.Net = simnet.TCP25G
		tcp, err := RunOne(b, spec, scTCP)
		if err != nil {
			return nil, err
		}
		scRDMA := sc
		scRDMA.Net = simnet.RDMA25G
		rdma, err := RunOne(b, spec, scRDMA)
		if err != nil {
			return nil, err
		}
		t.AddRow(spec.Label, tcp.Throughput, rdma.Throughput,
			metrics.Relative(rdma.Throughput, tcp.Throughput))
	}
	return []*Table{t}, nil
}

// --- Figure 10 ---

func runFig10(sc SweepConfig) ([]*Table, error) {
	sc.Net = simnet.TCP1G
	return runSweep("cnnlarge", "Figure 10", sc)
}

// --- §V-A: 10 vs 25 Gbps ---

func runNet25(sc SweepConfig) ([]*Table, error) {
	t := &Table{
		Title:  "§V-A: throughput moving from 10 Gbps to 25 Gbps",
		Header: []string{"benchmark", "method", "10G (samples/s)", "25G (samples/s)", "improvement"},
	}
	specs := []MethodSpec{
		{Label: "Baseline", Name: "none"},
		{Label: "Topk(0.01)", Name: "topk", Opts: grace.Options{Ratio: 0.01}, EF: true},
		{Label: "QSGD(64)", Name: "qsgd", Opts: grace.Options{Levels: 64}},
	}
	for _, bench := range []string{"cnnmid", "mlpwide"} {
		b, err := BenchmarkByName(bench)
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			sc10 := sc
			sc10.Net = simnet.TCP10G
			r10, err := RunOne(b, spec, sc10)
			if err != nil {
				return nil, err
			}
			sc25 := sc
			sc25.Net = simnet.TCP25G
			r25, err := RunOne(b, spec, sc25)
			if err != nil {
				return nil, err
			}
			t.AddRow(bench, spec.Label, r10.Throughput, r25.Throughput,
				metrics.Relative(r25.Throughput, r10.Throughput))
		}
	}
	return []*Table{t}, nil
}

// --- §V-B: error-feedback ablation ---

func runEFAblation(sc SweepConfig) ([]*Table, error) {
	methods := []MethodSpec{
		{Label: "Topk(0.01)", Name: "topk", Opts: grace.Options{Ratio: 0.01}},
		{Label: "Randk(0.01)", Name: "randomk", Opts: grace.Options{Ratio: 0.01}},
		{Label: "8-bit", Name: "eightbit"},
		{Label: "Natural", Name: "natural"},
		{Label: "QSGD(64)", Name: "qsgd", Opts: grace.Options{Levels: 64}},
		{Label: "TernGrad", Name: "terngrad"},
		{Label: "SignSGD", Name: "signsgd"},
	}
	var tables []*Table
	for _, bench := range []string{"mlpwide", "ncf"} {
		b, err := BenchmarkByName(bench)
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title:  fmt.Sprintf("EF ablation on %s (%s): %s with and without error feedback", b.Name, b.PaperModel, b.Metric),
			Header: []string{"method", "EF off", "EF on", "delta"},
		}
		for _, m := range methods {
			off := m
			off.EF = false
			on := m
			on.EF = true
			rOff, err := RunOne(b, off, sc)
			if err != nil {
				return nil, err
			}
			rOn, err := RunOne(b, on, sc)
			if err != nil {
				return nil, err
			}
			t.AddRow(m.Label, rOff.BestQuality, rOn.BestQuality, rOn.BestQuality-rOff.BestQuality)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// --- Figure 8 ---

// codecInput builds the compressor and deterministic d-element gradient the
// codec micro-benchmarks run over.
func codecInput(spec MethodSpec, d int, seed uint64) (grace.Compressor, []float32, grace.TensorInfo, error) {
	opts := spec.Opts
	opts.Seed = seed
	c, err := grace.New(spec.Name, opts)
	if err != nil {
		return nil, nil, grace.TensorInfo{}, err
	}
	rows := 1
	for rows*rows < d {
		rows *= 2
	}
	info := grace.NewTensorInfo("bench", []int{rows, (d + rows - 1) / rows})
	g := make([]float32, info.Size())
	rng := newLCG(seed)
	for i := range g {
		g[i] = rng.norm() * 0.1
	}
	return c, g, info, nil
}

// CodecLatency measures compress+decompress wall time for one method over a
// d-element tensor, returning per-repetition durations.
func CodecLatency(spec MethodSpec, d, reps int, seed uint64) ([]time.Duration, error) {
	c, g, info, err := codecInput(spec, d, seed)
	if err != nil {
		return nil, err
	}
	out := make([]time.Duration, reps)
	for r := 0; r < reps; r++ {
		start := time.Now()
		p, err := c.Compress(g, info)
		if err != nil {
			return nil, err
		}
		if _, err := c.Decompress(p, info); err != nil {
			return nil, err
		}
		out[r] = time.Since(start)
	}
	return out, nil
}

func runFig8(sc SweepConfig) ([]*Table, error) {
	sizesMB := []int{1, 10}
	reps := 5
	if sc.Scale >= 1 {
		sizesMB = append(sizesMB, 100)
		reps = 10
	}
	t := &Table{
		Title:  "Figure 8: compress+decompress latency (CPU Go substrate)",
		Header: []string{"method", "input", "min (ms)", "mean (ms)", "max (ms)"},
	}
	for _, spec := range Suite() {
		if spec.Name == "none" {
			continue
		}
		for _, mb := range sizesMB {
			d := mb * 1024 * 1024 / 4
			durs, err := CodecLatency(spec, d, reps, 7)
			if err != nil {
				return nil, err
			}
			min, max, sum := durs[0], durs[0], time.Duration(0)
			for _, d := range durs {
				if d < min {
					min = d
				}
				if d > max {
					max = d
				}
				sum += d
			}
			mean := sum / time.Duration(len(durs))
			t.AddRow(spec.Label, fmt.Sprintf("%dMB", mb),
				float64(min)/1e6, float64(mean)/1e6, float64(max)/1e6)
		}
	}
	return []*Table{t}, nil
}

// newLCG is a tiny local generator for benchmark inputs, avoiding fxrand so
// this file's hot loop is self-contained.
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed*2862933555777941757 + 3037000493} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s
}

// norm approximates a standard normal by summing uniforms (Irwin-Hall).
func (l *lcg) norm() float32 {
	var s float32
	for i := 0; i < 4; i++ {
		s += float32(l.next()>>40) / (1 << 24)
	}
	return (s - 2) * 1.732
}
