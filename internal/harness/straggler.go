package harness

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/grace"
	"repro/internal/telemetry"
	"repro/internal/telemetry/xrank"
)

// StragglerConfig describes one straggler-attribution battery run: a
// multi-rank in-process exchange loop with a per-op delay injected on one
// rank, the cross-rank observability plane enabled, and the merged trace's
// per-step skew rows checked for whether they attribute the slowness to the
// injected rank. The battery is the end-to-end proof of the xrank plane's
// core claim: rendezvous wait asymmetry alone — no cross-rank clock sync —
// identifies the straggler.
type StragglerConfig struct {
	Workers int
	Steps   int
	Tensors int
	// DelayRank is the rank carrying the injected pre-collective delay.
	DelayRank int
	// Delay is the injected per-op sleep; it must dominate the substrate's
	// natural jitter for the attribution to be meaningful.
	Delay time.Duration
	// AggregateEvery is the xrank piggyback cadence in steps.
	AggregateEvery int
	// Method/Opts select the compressor (an allreduce-strategy method keeps
	// the delayed op and the fault rule trivially aligned).
	Method string
	Opts   grace.Options
	Seed   uint64
	// ArtifactsDir, when non-empty, receives rank 0's merged trace + skew
	// artifacts (XRANK_trace.json, XRANK_skew.json) for gracestat.
	ArtifactsDir string
	Timeout      time.Duration
}

// DefaultStraggler is the stock battery: 4 ranks, one of them (rank 2)
// delayed 2ms before every allreduce, dense exchange so every step has a
// clean per-tensor op window.
func DefaultStraggler(workers int, seed uint64) StragglerConfig {
	if workers < 2 {
		workers = 4
	}
	return StragglerConfig{
		Workers:        workers,
		Steps:          40,
		Tensors:        6,
		DelayRank:      workers / 2,
		Delay:          2 * time.Millisecond,
		AggregateEvery: 10,
		Method:         "none",
		Seed:           seed,
	}
}

// StragglerResult is the battery verdict, in the form the run summaries
// serialize: how many of the merged trace's per-step skew rows named the rank
// carrying the injected delay, the per-rank straggler tally, and the largest
// wait spread observed.
type StragglerResult struct {
	Pass bool `json:"pass"`
	// DelayedRank echoes the injected rank. SkewSteps is how many per-step
	// skew rows the merged trace yielded; Attributed is how many of them
	// named DelayedRank the straggler. Counts is the full per-rank straggler
	// tally over the rows.
	DelayedRank int     `json:"delayed_rank"`
	SkewSteps   int     `json:"skew_steps"`
	Attributed  int     `json:"attributed_steps"`
	Counts      []int64 `json:"straggler_counts,omitempty"`
	// MaxSkewMs is the largest slowest-vs-fastest wait spread observed in
	// one step; with an injected delay it should be on the order of
	// Delay × ops-per-step.
	MaxSkewMs float64 `json:"max_skew_ms"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Detail    string  `json:"detail,omitempty"`

	// Errs holds each rank's first error (nil entries for clean ranks).
	Errs []error `json:"-"`
}

// RunStraggler runs the battery. It owns telemetry.Default for its duration
// (Reset on entry, counters included; recording on, and the previous gate
// restored on exit), so it must not run concurrently with another consumer
// of the registry.
func RunStraggler(cfg StragglerConfig) StragglerResult {
	res := StragglerResult{DelayedRank: cfg.DelayRank}
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultFleetTimeout
	}
	if cfg.AggregateEvery <= 0 {
		cfg.AggregateEvery = 10
	}
	plan := comm.Plan{
		Seed: cfg.Seed,
		Faults: []comm.Fault{{
			Kind:  comm.FaultDelay,
			Rank:  cfg.DelayRank,
			Op:    comm.OpAllreduce,
			Delay: cfg.Delay,
		}},
	}

	tel := telemetry.Default
	tel.Reset()
	prev := tel.Enabled()
	tel.Enable(true)
	defer tel.Enable(prev)

	hub := comm.NewHub(cfg.Workers)
	colls := make([]comm.Collective, cfg.Workers)
	aggs := make([]*xrank.Aggregator, cfg.Workers)
	start := time.Now()
	var hung bool
	res.Errs, hung = runFleet(hub, cfg.Workers, cfg.Steps, chaosInfos(cfg.Tensors), chaosSeed, cfg.Timeout,
		func(rank int) (*grace.Engine, error) {
			colls[rank] = comm.NewFaulty(hub.Worker(rank), plan)
			aggs[rank] = xrank.NewAggregator(tel, rank, cfg.Workers)
			return grace.NewEngine(
				grace.WithCollective(colls[rank]),
				grace.WithParallelism(2),
				grace.WithCompressorFactory(func() (grace.Compressor, error) {
					return grace.New(cfg.Method, cfg.Opts)
				}),
			)
		},
		func(rank, step int, _ *grace.StepReport) error {
			// Same cadence position on every rank: the piggyback allgather
			// is part of the lockstep op sequence.
			if (step+1)%cfg.AggregateEvery != 0 {
				return nil
			}
			return aggs[rank].Exchange(colls[rank])
		})
	if hung {
		res.Detail = "hung"
		return res
	}
	res.ElapsedMs = ms(time.Since(start))
	for _, err := range res.Errs {
		if err != nil {
			res.Detail = "rank error"
			return res
		}
	}

	rows := xrank.ComputeSkew(aggs[0].Merged(), cfg.Workers)
	res.SkewSteps = len(rows)
	res.Counts = xrank.StragglerCounts(rows, cfg.Workers)
	for _, row := range rows {
		if row.Straggler == cfg.DelayRank {
			res.Attributed++
		}
		res.MaxSkewMs = max(res.MaxSkewMs, float64(row.SkewNs)/1e6)
	}
	if cfg.ArtifactsDir != "" {
		if err := aggs[0].WriteArtifacts(cfg.ArtifactsDir); err != nil {
			res.Detail = fmt.Sprintf("artifact write: %v", err)
			return res
		}
	}

	// Verdict: the merged trace must cover most of the run (the last cadence
	// tick flushes every full window), and ≥90% of the covered steps must
	// finger the delayed rank.
	minRows := cfg.Steps / 2
	if res.SkewSteps < minRows {
		res.Detail = fmt.Sprintf("only %d skew rows for %d steps", res.SkewSteps, cfg.Steps)
		return res
	}
	if res.Attributed*10 < res.SkewSteps*9 {
		res.Detail = fmt.Sprintf("rank %d attributed in %d/%d steps (<90%%), counts=%v",
			cfg.DelayRank, res.Attributed, res.SkewSteps, res.Counts)
		return res
	}
	res.Pass = true
	res.Detail = fmt.Sprintf("rank %d attributed in %d/%d steps, max skew %.3fms",
		cfg.DelayRank, res.Attributed, res.SkewSteps, res.MaxSkewMs)
	return res
}
