package harness

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/grace"
	"repro/internal/grace/autotune"
	"repro/internal/simnet"
)

// This file is the autotune benchmark battery: one tuned training run
// against one static training run per candidate, compared on modeled step
// time. The comparison metric is NOT read off the training runs directly —
// their trajectories diverge (different compression histories produce
// different gradients, and sparsifier index coding is value-dependent), so
// comparing their clocks would be comparing two different workloads. Instead
// the battery freezes each run's policy and replays all of them over one
// common deterministic gradient stream shaped like the benchmark's model,
// charging the exchanged bytes against the same α-β cluster model the
// trainer's virtual clock uses. Per-tensor costs are independent under
// per-tensor collectives, so a policy that picks each tensor's cheapest
// candidate is additive-optimal, and two identical policies tie exactly.

// AutotuneRow is one run of the battery; RunSummary.Autotune carries the rows
// into RUN_autotune.json.
type AutotuneRow struct {
	// Label is the candidate label, or "autotune" for the tuned run.
	Label string `json:"label"`
	Tuned bool   `json:"tuned"`
	// StepTime is the frozen policy's modeled step time on the common
	// replay stream: modeled comm per step + the benchmark's ComputePerIter.
	// Deterministic, so the committed figure moves only when behaviour does.
	StepTime time.Duration `json:"step_ns"`
	// Switches and FinalPolicy echo the training run's Report (zero/nil for
	// static rows).
	Switches    int64         `json:"switches"`
	FinalPolicy []string      `json:"final_policy"`
	Report      *grace.Report `json:"-"`
}

// AutotuneResult is the battery outcome.
type AutotuneResult struct {
	// Rows holds the tuned row first, then one static row per candidate.
	Rows []AutotuneRow
	// Tuned and BestStatic point into Rows.
	Tuned      *AutotuneRow
	BestStatic *AutotuneRow
}

// DefaultAutotuneSweep is the autotune study's system point: 4 workers on
// 1 Gbps TCP — the communication-bound corner where method choice moves
// modeled wall-clock the most, and where the paper's Figure 10 shows the
// method ranking inverting.
func DefaultAutotuneSweep() SweepConfig {
	return SweepConfig{Workers: 4, Net: simnet.TCP1G, Scale: 1.0, Seed: 42}
}

// autotuneEvery is the battery's decision period. The stock benchmarks run
// few iterations per epoch, so a short period lets warmup (len(candidates)
// windows) finish with most of the run left in steady state.
const autotuneEvery = 2

// replaySteps is the length of the common replay stream the frozen policies
// are scored on; replayTimeout is the watchdog on one replay (milliseconds of
// work on the stock benchmarks, so expiry means a deadlock).
const (
	replaySteps   = 8
	replayTimeout = 2 * time.Minute
)

// NewDefaultTuner returns a grace.Config.NewTuner factory for the stock
// candidate set under the sweep's link and group size. Every rank must build
// an identical policy, which is why the factory closes over the sweep
// config and nothing rank-dependent.
func NewDefaultTuner(sc SweepConfig) func() (grace.Tuner, error) {
	return func() (grace.Tuner, error) {
		return autotune.New(autotune.Config{
			Candidates: autotune.DefaultCandidates(),
			Every:      autotuneEvery,
			Workers:    sc.Workers,
			Link:       sc.Net,
		})
	}
}

// fixedTuner pins a constant per-tensor assignment over a candidate set; the
// replay probe uses it to run a frozen policy through the real codec and
// collective paths without any decision logic.
type fixedTuner struct {
	cands  []grace.TunerCandidate
	assign []int32
}

func (f *fixedTuner) Candidates() []grace.TunerCandidate { return f.cands }
func (f *fixedTuner) Sig() string                        { return "harness-fixed" }

func (f *fixedTuner) Init(infos []grace.TensorInfo) error {
	if len(f.assign) != len(infos) {
		return fmt.Errorf("harness: fixed policy covers %d tensors, engine has %d", len(f.assign), len(infos))
	}
	return nil
}

func (f *fixedTuner) Plan(dst []grace.TunerAssign) int {
	for i := range dst {
		dst[i] = grace.TunerAssign{Cand: int(f.assign[i])}
	}
	return 0
}

func (f *fixedTuner) Observe([]grace.TunerObs) {}
func (f *fixedTuner) State() *grace.TunerState {
	return &grace.TunerState{Sig: "harness-fixed", Cands: int32(len(f.cands))}
}
func (f *fixedTuner) LoadState(*grace.TunerState) error { return nil }

// benchInfos derives the benchmark model's tensor set, the same way the
// trainer registers it.
func benchInfos(b Benchmark, seed uint64) []grace.TensorInfo {
	params := b.NewModel(seed).Params()
	infos := make([]grace.TensorInfo, len(params))
	for i, p := range params {
		infos[i] = grace.NewTensorInfo(p.Name, p.Value.Shape())
	}
	return infos
}

// replaySeed picks the common gradient stream: deterministic in (rank, step),
// identical for every policy being scored.
func replaySeed(rank, step int) uint64 { return uint64(rank)*104729 + uint64(step)*31 + 5 }

// replayStepTime scores one frozen per-tensor assignment on the common
// stream: it runs the policy through real engines (with error-feedback
// memory, as the tuned run trains) on an in-process hub and averages the
// modeled comm time of the exchanged bytes, plus the benchmark's fixed
// compute model. Everything here is deterministic.
func replayStepTime(b Benchmark, sc SweepConfig, cands []grace.TunerCandidate, assign []int32) (time.Duration, error) {
	infos := benchInfos(b, sc.Seed)
	if len(assign) != len(infos) {
		return 0, fmt.Errorf("harness: policy covers %d tensors, model has %d", len(assign), len(infos))
	}
	cluster := simnet.NewCluster(sc.Net, sc.Workers)
	hub := comm.NewHub(sc.Workers)
	var commTotal time.Duration // rank 0's
	errs, _ := runFleet(hub, sc.Workers, replaySteps, infos, replaySeed, replayTimeout,
		func(rank int) (*grace.Engine, error) {
			return grace.NewEngine(
				grace.WithCollective(hub.Worker(rank)),
				grace.WithTuner(&fixedTuner{cands: cands, assign: assign}),
				grace.WithEngineMemory(grace.NewMemory(1, 1)),
				grace.WithParallelism(sc.CodecParallelism),
			)
		},
		func(rank, _ int, rep *grace.StepReport) error {
			if rank == 0 {
				commTotal += grace.ModeledStepCommTime(cluster, rep)
			}
			return nil
		})
	if err := errors.Join(errs...); err != nil {
		return 0, fmt.Errorf("harness: policy replay: %w", err)
	}
	return commTotal/replaySteps + b.ComputePerIter, nil
}

// RunAutotuneBench trains benchmark b once under the autotuner and once per
// static candidate, then scores every frozen policy on the common replay
// stream and ranks the runs on modeled step time.
func RunAutotuneBench(b Benchmark, sc SweepConfig) (*AutotuneResult, error) {
	res := &AutotuneResult{}
	cands := autotune.DefaultCandidates()

	// The tuned run trains with error feedback, as every static run below.
	tunedCfg := b.TrainConfig(MethodSpec{EF: true}, sc)
	tunedCfg.NewCompressor, tunedCfg.NewTuner = nil, NewDefaultTuner(sc)
	rep, err := grace.Run(tunedCfg)
	if err != nil {
		return nil, fmt.Errorf("harness: %s / autotune: %w", b.Name, err)
	}

	// Freeze the tuned run's final policy as a per-tensor assignment.
	byLabel := make(map[string]int32, len(cands))
	for i, c := range cands {
		byLabel[c.Label] = int32(i)
	}
	assign := make([]int32, len(rep.FinalPolicy))
	for i, label := range rep.FinalPolicy {
		c, ok := byLabel[label]
		if !ok {
			return nil, fmt.Errorf("harness: tuned run reports unknown candidate %q", label)
		}
		assign[i] = c
	}
	st, err := replayStepTime(b, sc, cands, assign)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AutotuneRow{
		Label: "autotune", Tuned: true, StepTime: st,
		Switches: rep.Switches, FinalPolicy: rep.FinalPolicy, Report: rep,
	})

	// One static training run + frozen replay per candidate, under the same
	// error-feedback setting the tuned run uses for every candidate.
	nTensors := len(benchInfos(b, sc.Seed))
	for ci, cand := range cands {
		spec := MethodSpec{Label: cand.Label, Name: cand.Method, Opts: cand.Opts, EF: true}
		rep, err := RunOne(b, spec, sc)
		if err != nil {
			return nil, err
		}
		uniform := make([]int32, nTensors)
		for i := range uniform {
			uniform[i] = int32(ci)
		}
		st, err := replayStepTime(b, sc, cands, uniform)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AutotuneRow{Label: cand.Label, StepTime: st, Report: rep})
	}

	res.Tuned = &res.Rows[0]
	for i := 1; i < len(res.Rows); i++ {
		if res.BestStatic == nil || res.Rows[i].StepTime < res.BestStatic.StepTime {
			res.BestStatic = &res.Rows[i]
		}
	}
	return res, nil
}
