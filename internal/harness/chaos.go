package harness

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/fxrand"
	"repro/internal/grace"
	"repro/internal/grace/autotune"
	"repro/internal/simnet"
)

// ChaosScenario is one fault-injection experiment: a comm.Plan applied to
// every worker's collective handle, plus the expected outcome.
type ChaosScenario struct {
	Name string
	Plan comm.Plan
	// DecodeFallback enables the Engine's graceful decode recovery.
	DecodeFallback bool
	// ExpectError marks scenarios whose faults are fatal by design (drop,
	// reset): the scenario passes when every rank surfaces a typed error
	// within the timeout, rather than when the run completes.
	ExpectError bool
	// Retry, when non-nil, wraps every rank's collective in comm.Resilient
	// with this policy: transient faults (drops, resets, aborts) are healed
	// by group reform plus bounded retry instead of surfacing. A retrying
	// scenario with ExpectError false must complete cleanly AND actually
	// absorb injected faults — zero injections fails the verdict, since the
	// scenario would prove nothing. Fault windows must be bounded (ToStep):
	// the Faulty step counter advances per attempt, so an open-ended rule
	// re-fires on every retry until the budget burns out.
	Retry *comm.RetryPolicy
}

// ChaosConfig describes a chaos sweep: a synthetic multi-tensor exchange
// workload (no model, no optimizer — just the Engine over a fault-injected
// hub) run once per scenario.
type ChaosConfig struct {
	Workers int
	Tensors int
	Steps   int
	Method  string
	Opts    grace.Options
	Timeout time.Duration
	// FusionBytes, when > 0, runs the battery with tensor-fusion batching at
	// that bucket fill target, so fault injection also exercises the fused
	// collective schedule (corrupt fused frames, fused recovery rounds).
	FusionBytes int
	// NewTuner, when set, runs every scenario's engines in autotuning mode
	// (with the framework error-feedback memory) instead of the fixed
	// Method/Opts compressor, so faults also hit warmup probing, scored
	// switches, and flush handoffs. Mutually exclusive with FusionBytes —
	// the Engine rejects fusion in tuner mode.
	NewTuner  func() (grace.Tuner, error)
	Scenarios []ChaosScenario
}

// ChaosResult is one scenario's verdict, in the form the run summaries
// serialize.
type ChaosResult struct {
	Scenario string `json:"scenario"`
	// Pass is the scenario-level verdict: completed cleanly when expected
	// to, or produced typed errors everywhere when a fatal fault was
	// injected — and never hung.
	Pass bool `json:"pass"`
	// Hung reports that the watchdog fired; the group was aborted to
	// reclaim the workers.
	Hung      bool    `json:"hung,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Injected counts the faults the plan actually fired, across ranks.
	Injected int64 `json:"faults_injected"`
	// Retries counts the transient failures absorbed by comm.Resilient across
	// ranks (0 unless the scenario sets Retry).
	Retries int64 `json:"retries_absorbed,omitempty"`
	// Faults / Fallbacks sum the Engines' decode-fault and recovery
	// counters across ranks and steps.
	Faults    int `json:"decode_faults"`
	Fallbacks int `json:"decode_fallbacks"`
	// Errors renders Errs, rank-aligned ("" for a clean rank); absent when
	// every rank finished cleanly.
	Errors []string `json:"errors,omitempty"`
	// Detail explains a failed verdict.
	Detail string `json:"detail,omitempty"`

	// Errs holds each rank's first error (nil entries for clean ranks).
	Errs []error `json:"-"`
}

// DefaultChaos is the standard chaos battery: benign latency faults that must
// not change results, a corruption scenario that must degrade gracefully
// under DecodeFallback, and fatal drop/reset scenarios that must surface
// typed errors on every rank instead of deadlocking.
func DefaultChaos(workers int, seed uint64) ChaosConfig {
	if workers < 3 {
		workers = 3
	}
	return ChaosConfig{
		Workers: workers,
		Tensors: 6,
		Steps:   6,
		Method:  "topk",
		Opts:    grace.Options{Ratio: 0.25},
		Timeout: 30 * time.Second,
		// Run fused — two tensors per bucket at these shapes, three collective
		// rounds per step — so faults hit fused frames and recovery degrades
		// whole buckets, while the drop/reset FromStep op counts below still
		// land mid-run.
		FusionBytes: 1024,
		Scenarios: []ChaosScenario{
			{Name: "clean", Plan: comm.Plan{Seed: seed}},
			{Name: "delay", Plan: comm.Plan{Seed: seed, Faults: []comm.Fault{
				{Kind: comm.FaultDelay, Rank: 0, Op: comm.OpAllgather, Prob: 0.5, Delay: 200 * time.Microsecond},
			}}},
			{Name: "stall", Plan: comm.Plan{Seed: seed, Faults: []comm.Fault{
				{Kind: comm.FaultStall, Rank: 1, Prob: 0.5, Delay: 200 * time.Microsecond},
			}}},
			{Name: "corrupt+fallback", DecodeFallback: true, Plan: comm.Plan{Seed: seed, Faults: []comm.Fault{
				{Kind: comm.FaultCorrupt, Rank: 0, Op: comm.OpAllgather, Prob: 0.5},
			}}},
			{Name: "drop", ExpectError: true, Plan: comm.Plan{Seed: seed, Faults: []comm.Fault{
				{Kind: comm.FaultDrop, Rank: 1, Op: comm.OpAllgather, FromStep: 8},
			}}},
			{Name: "reset", ExpectError: true, Plan: comm.Plan{Seed: seed, Faults: []comm.Fault{
				{Kind: comm.FaultReset, Rank: 2, Op: comm.OpAllgather, FromStep: 14},
			}}},
			// The same fatal fault kinds, but transient (bounded windows) and
			// with the Resilient wrapper on: the group must absorb them via
			// reform+retry and finish with no supervisor intervention. Windows
			// span 2 attempt-steps — under the per-op cap of 3 the retried op
			// re-fires the fault at most once before escaping the window.
			{Name: "drop+retry", Retry: &comm.RetryPolicy{Seed: seed, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
				Plan: comm.Plan{Seed: seed, Faults: []comm.Fault{
					{Kind: comm.FaultDrop, Rank: 1, Op: comm.OpAllgather, FromStep: 4, ToStep: 5},
				}}},
			{Name: "reset+retry", Retry: &comm.RetryPolicy{Seed: seed, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
				Plan: comm.Plan{Seed: seed, Faults: []comm.Fault{
					{Kind: comm.FaultReset, Rank: 2, Op: comm.OpAllgather, FromStep: 8, ToStep: 9},
				}}},
		},
	}
}

// AutotuneChaos is DefaultChaos with the engines in autotuning mode: the
// same fault battery, but run through the policy engine with a short
// decision cadence, so injected faults land on warmup probes, scored
// switches, and flush handoffs alike.
func AutotuneChaos(workers int, seed uint64) ChaosConfig {
	cfg := DefaultChaos(workers, seed)
	cfg.Method, cfg.Opts = "", grace.Options{}
	cfg.FusionBytes = 0
	cfg.Steps = 12
	// The tuner interleaves probe/score/policy ops with the gradient
	// exchange, so the retry scenarios' bounded windows — indexed by the
	// per-handle op counter — can land on any op kind. Drop the allgather
	// filter there or the window slides past without firing.
	for i, sc := range cfg.Scenarios {
		if sc.Retry != nil {
			for j := range sc.Plan.Faults {
				cfg.Scenarios[i].Plan.Faults[j].Op = ""
			}
		}
	}
	cfg.NewTuner = func() (grace.Tuner, error) {
		return autotune.New(autotune.Config{
			Candidates: autotune.DefaultCandidates(),
			Every:      2,
			Workers:    cfg.Workers,
			Link:       simnet.TCP1G,
		})
	}
	return cfg
}

// RunChaos executes every scenario and returns one result per scenario. A
// watchdog aborts the collective group if a scenario exceeds cfg.Timeout, so
// a deadlock becomes a failed (Hung) result instead of a stuck process.
func RunChaos(cfg ChaosConfig) []ChaosResult {
	results := make([]ChaosResult, 0, len(cfg.Scenarios))
	for _, sc := range cfg.Scenarios {
		results = append(results, runChaosScenario(cfg, sc))
	}
	return results
}

func runChaosScenario(cfg ChaosConfig, sc ChaosScenario) ChaosResult {
	res := ChaosResult{Scenario: sc.Name}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = defaultFleetTimeout
	}
	hub := comm.NewHub(cfg.Workers)
	if sc.Retry != nil {
		// A retrying scenario's reform rendezvous must give up well before the
		// scenario watchdog, so a rank that died outright (bug) turns into a
		// typed error instead of a Hung verdict.
		hub.SetReformTimeout(timeout / 2)
	}
	faulties := make([]*comm.Faulty, cfg.Workers)
	resilients := make([]*comm.Resilient, cfg.Workers)
	faults, fallbacks := make([]int, cfg.Workers), make([]int, cfg.Workers)

	start := time.Now()
	res.Errs, res.Hung = runFleet(hub, cfg.Workers, cfg.Steps, chaosInfos(cfg.Tensors), chaosSeed, timeout,
		func(rank int) (*grace.Engine, error) {
			faulties[rank] = comm.NewFaulty(hub.Worker(rank), sc.Plan)
			var coll comm.Collective = faulties[rank]
			if sc.Retry != nil {
				resilients[rank] = comm.NewResilient(coll, *sc.Retry)
				coll = resilients[rank]
			}
			engOpts := []grace.EngineOption{
				grace.WithCollective(coll),
				grace.WithParallelism(2),
				grace.WithDecodeFallback(sc.DecodeFallback),
			}
			if cfg.NewTuner != nil {
				tn, err := cfg.NewTuner()
				if err != nil {
					return nil, err
				}
				engOpts = append(engOpts,
					grace.WithTuner(tn),
					grace.WithEngineMemory(grace.NewMemory(1, 1)))
			} else {
				engOpts = append(engOpts,
					grace.WithCompressorFactory(func() (grace.Compressor, error) {
						return grace.New(cfg.Method, cfg.Opts)
					}),
					grace.WithFusionBytes(cfg.FusionBytes))
			}
			return grace.NewEngine(engOpts...)
		},
		func(rank, _ int, rep *grace.StepReport) error {
			faults[rank] += rep.Faults
			fallbacks[rank] += rep.Fallbacks
			return nil
		})
	res.ElapsedMs = ms(time.Since(start))
	res.Errors = errStrings(res.Errs)
	for rank := range faults {
		res.Faults += faults[rank]
		res.Fallbacks += fallbacks[rank]
		if fy := faulties[rank]; fy != nil {
			res.Injected += fy.Counts().Total()
		}
		if rs := resilients[rank]; rs != nil {
			res.Retries += rs.Retries()
		}
	}
	res.Pass, res.Detail = chaosVerdict(sc, &res)
	return res
}

// defaultFleetTimeout is the watchdog a battery gets when its config names
// none.
const defaultFleetTimeout = 30 * time.Second

// runFleet is the synthetic workload every engine-level battery shares: no
// model, no optimizer — one goroutine per rank on hub, one Engine each,
// steps lockstep steps over seeded gradients (seed picks the stream). build
// makes a rank's engine over its hub handle, wrapped as the battery needs;
// after each step, afterStep sees the rank's report and may issue further
// lockstep collectives. A rank stops at its first error, which is returned
// rank-aligned. A watchdog turns a deadlock into hung = true instead of a
// stuck process: past timeout it aborts the hub to reclaim the workers.
func runFleet(hub *comm.Hub, workers, steps int, infos []grace.TensorInfo, seed func(rank, step int) uint64,
	timeout time.Duration, build func(rank int) (*grace.Engine, error),
	afterStep func(rank, step int, rep *grace.StepReport) error) (errs []error, hung bool) {
	errs = make([]error, workers)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for rank := 0; rank < workers; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				eng, err := build(rank)
				for step := 0; err == nil && step < steps; step++ {
					var rep *grace.StepReport
					if _, rep, err = eng.Step(syntheticGrads(seed(rank, step), infos), infos); err == nil {
						err = afterStep(rank, step, rep)
					}
				}
				errs[rank] = err
			}(rank)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		hung = true
		hub.Abort(fmt.Errorf("harness watchdog: fleet exceeded %v", timeout))
		<-done
	}
	return errs, hung
}

// errStrings renders rank-aligned errors for a JSON row ("" for a clean
// rank), or nil when every rank is clean.
func errStrings(errs []error) []string {
	var out []string
	for rank, err := range errs {
		if err != nil {
			if out == nil {
				out = make([]string, len(errs))
			}
			out[rank] = err.Error()
		}
	}
	return out
}

// chaosVerdict applies the scenario's expectation to what happened.
func chaosVerdict(sc ChaosScenario, res *ChaosResult) (bool, string) {
	if res.Hung {
		return false, "deadlock: watchdog aborted the group"
	}
	if !sc.ExpectError {
		for rank, err := range res.Errs {
			if err != nil {
				return false, fmt.Sprintf("rank %d failed: %v", rank, err)
			}
		}
		if sc.Retry != nil && res.Injected == 0 {
			return false, "retry scenario injected no faults; the clean finish proves nothing"
		}
		return true, ""
	}
	for rank, err := range res.Errs {
		if err == nil {
			return false, fmt.Sprintf("rank %d completed despite a fatal fault", rank)
		}
		var se *grace.StepError
		var ce *comm.Error
		if !errors.As(err, &se) && !errors.As(err, &ce) {
			return false, fmt.Sprintf("rank %d error is untyped: %v", rank, err)
		}
	}
	return true, ""
}

// chaosInfos builds the synthetic tensor set: alternating matrices and
// vectors, as in the engine tests.
func chaosInfos(m int) []grace.TensorInfo {
	infos := make([]grace.TensorInfo, m)
	for i := range infos {
		shape := []int{16, 8}
		if i%2 == 1 {
			shape = []int{23}
		}
		infos[i] = grace.NewTensorInfo(fmt.Sprintf("chaos%d", i), shape)
	}
	return infos
}

// chaosSeed picks the chaos and straggler batteries' gradient stream.
func chaosSeed(rank, step int) uint64 { return uint64(rank)*7919 + uint64(step) + 1 }

// syntheticGrads draws one rank's gradients for one step from the stream at
// seed.
func syntheticGrads(seed uint64, infos []grace.TensorInfo) [][]float32 {
	r := fxrand.New(seed)
	out := make([][]float32, len(infos))
	for i, info := range infos {
		g := make([]float32, info.Size())
		for j := range g {
			g[j] = r.NormFloat32() * 0.1
		}
		out[i] = g
	}
	return out
}
