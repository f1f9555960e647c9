package harness

import (
	"fmt"

	"repro/internal/grace"
	"repro/internal/simnet"
)

// MethodSpec is one evaluated configuration of a compression method, with
// the degree-of-compression parameters the paper uses in its figure legends
// (e.g. "Topk(0.01)", "QSGD(64)").
type MethodSpec struct {
	Label string
	Name  string
	Opts  grace.Options
	// EF enables the framework error-feedback memory. Methods with built-in
	// memory keep it false regardless of the paper's EF-On column.
	EF bool
}

// ExtensionMethods are registered methods that go beyond the paper's 16
// implemented ones; they are evaluated by dedicated ablation experiments
// rather than the main Figure 6/7 sweeps.
var ExtensionMethods = map[string]bool{
	"huffterngrad": true,
	"huffqsgd":     true,
	"signsgdmv":    true,
}

// Suite returns the paper's evaluated method set (§V, Figure legends) with
// the default degrees of compression, plus the ATOMO extension. Error
// feedback follows Table I's EF-On column, honoring built-in memories.
func Suite() []MethodSpec {
	specs := []MethodSpec{
		{Label: "Baseline", Name: "none"},
		{Label: "SignSGD", Name: "signsgd"},
		{Label: "SIGNUM", Name: "signum"},
		{Label: "EFsignSGD", Name: "efsignsgd", EF: true},
		{Label: "1-bit SGD", Name: "onebit", EF: true},
		{Label: "QSGD(64)", Name: "qsgd", Opts: grace.Options{Levels: 64}},
		{Label: "TernGrad", Name: "terngrad"},
		{Label: "Natural", Name: "natural", EF: true},
		{Label: "8-bit", Name: "eightbit", EF: true},
		{Label: "INCEPTIONN", Name: "inceptionn"},
		{Label: "Topk(0.01)", Name: "topk", Opts: grace.Options{Ratio: 0.01}, EF: true},
		{Label: "Randk(0.01)", Name: "randomk", Opts: grace.Options{Ratio: 0.01}, EF: true},
		{Label: "Thresh(0.01)", Name: "thresholdv", Opts: grace.Options{Threshold: 0.01}, EF: true},
		{Label: "DGC(0.01)", Name: "dgc", Opts: grace.Options{Ratio: 0.01}},
		{Label: "Adaptive(0.01)", Name: "adaptive", Opts: grace.Options{Ratio: 0.01}, EF: true},
		{Label: "SketchML(64)", Name: "sketchml", Opts: grace.Options{Levels: 64}, EF: true},
		{Label: "3LC", Name: "threelc", EF: true},
		{Label: "PowerSGD(4)", Name: "powersgd", Opts: grace.Options{Rank: 4}},
		{Label: "ATOMO(3)", Name: "atomo", Opts: grace.Options{Rank: 3}},
	}
	return specs
}

// SweepConfig sets the system configuration of an experiment run.
type SweepConfig struct {
	Workers int
	Net     simnet.Link
	// Scale multiplies benchmark epochs (and is the knob that trades
	// fidelity for runtime; 1.0 = DESIGN.md defaults).
	Scale float64
	Seed  uint64
	// CodecParallelism bounds each worker's Engine codec lanes; 0 selects
	// GOMAXPROCS (see grace.EngineConfig).
	CodecParallelism int
	// FusionBytes, when > 0, enables tensor-fusion batching with that bucket
	// fill target (see grace.FusionConfig.TargetBytes); 0 keeps the paper's
	// per-tensor collective schedule.
	FusionBytes int
	// XRank configures the cross-rank observability plane for the run (event
	// recording, trace aggregation cadence, flight recorder); the zero value
	// keeps it off. See grace.XRankConfig.
	XRank grace.XRankConfig
}

// TrainConfig is the one benchmark → grace.Config mapping: b's model, data,
// optimizer, evaluator and compute model; spec's method, built per rank and
// seeded Seed*1000+rank so ranks draw distinct random streams, and its
// error-feedback setting; sc's system point. Every harness run and
// cmd/graceworker start from it and adjust what differs (ParamServer,
// SyncEvery, NewTuner, the worker's ring-side fields).
func (b Benchmark) TrainConfig(spec MethodSpec, sc SweepConfig) grace.Config {
	return grace.Config{
		Workers:      sc.Workers,
		BatchSize:    b.BatchSize,
		Epochs:       b.ScaledEpochs(sc.Scale),
		Seed:         sc.Seed,
		NewModel:     b.NewModel,
		Dataset:      b.NewDataset(),
		NewOptimizer: b.NewOptimizer,
		NewCompressor: func(rank int) (grace.Compressor, error) {
			opts := spec.Opts
			opts.Seed = sc.Seed*1000 + uint64(rank)
			return grace.New(spec.Name, opts)
		},
		UseMemory:            spec.EF,
		CodecParallelism:     sc.CodecParallelism,
		Fusion:               grace.FusionConfig{TargetBytes: sc.FusionBytes},
		XRank:                sc.XRank,
		Net:                  sc.Net,
		ComputePerIter:       b.ComputePerIter,
		Eval:                 b.NewEval(),
		QualityLowerIsBetter: b.LowerIsBetter,
	}
}

// RunOne trains benchmark b under the given method and returns the report.
func RunOne(b Benchmark, spec MethodSpec, sc SweepConfig) (*grace.Report, error) {
	rep, err := grace.Run(b.TrainConfig(spec, sc))
	if err != nil {
		return nil, fmt.Errorf("harness: %s / %s: %w", b.Name, spec.Label, err)
	}
	return rep, nil
}
