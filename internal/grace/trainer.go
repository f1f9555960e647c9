package grace

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/telemetry/xrank"
	"repro/internal/tensor"
)

// XRankConfig parameterizes the cross-rank observability plane for one run
// (see Config.XRank and package telemetry/xrank).
type XRankConfig struct {
	// Enable turns on event recording in the process-wide xrank recorder.
	Enable bool
	// AggregateEvery > 0 piggybacks each rank's event window on one extra
	// AllgatherBytes every that many optimizer steps; rank 0 merges the
	// windows into the run's distributed trace, other ranks contribute and
	// discard. The extra collective is part of the lockstep op sequence, so
	// the value must be identical on every rank (like DecodeFallback or
	// Fusion). 0 disables aggregation: events are still recorded locally and
	// remain available to the flight recorder.
	AggregateEvery int
	// ArtifactsDir receives rank 0's merged trace + skew artifacts at run
	// end and every rank's flight-recorder dumps. Empty leaves the flight
	// recorder disarmed and skips the artifact write.
	ArtifactsDir string
	// FlightWindow bounds the flight recorder's look-back (0 keeps the
	// recorder's default, 10s).
	FlightWindow time.Duration
}

// Model is what the trainer needs from a benchmark model: parameters with
// gradients and a forward/backward step over one mini-batch returning the
// loss. Replicas are constructed identically on every worker (same seed) and
// stay identical because they apply the same aggregated gradients.
type Model interface {
	Params() []*nn.Param
	ForwardBackward(b data.Batch) float64
}

// Config describes one distributed training run.
type Config struct {
	Workers   int
	BatchSize int // per-worker mini-batch size
	Epochs    int
	Seed      uint64

	// NewModel constructs a model replica; it is called once per worker with
	// the same seed so replicas start identical.
	NewModel func(seed uint64) Model
	// Dataset provides training batches; it must be safe for concurrent
	// read-only Batch calls.
	Dataset data.Dataset
	// NewOptimizer constructs a per-worker optimizer.
	NewOptimizer func() optim.Optimizer
	// LRSchedule, when set, adjusts the optimizer's learning rate at the
	// start of each epoch.
	LRSchedule optim.Schedule
	// NewCompressor constructs the per-worker compressor instance. Workers
	// must get distinct instances (compressors carry state); randomized
	// methods should be seeded per rank. Required unless NewTuner is set.
	NewCompressor func(rank int) (Compressor, error)
	// NewTuner, when set, runs the workers in autotuning mode: each worker's
	// Engine gets its own policy instance from this factory instead of a
	// fixed compressor (see EngineConfig.Tuner). Policies must be configured
	// identically on every rank — the trajectory is part of the collective
	// sequence — which is why the factory takes no rank. Mutually exclusive
	// with NewCompressor and Fusion.
	NewTuner func() (Tuner, error)

	// UseMemory enables the framework error-feedback memory (Eq. 4) with
	// coefficients Beta and Gamma (both default to 1).
	UseMemory   bool
	Beta, Gamma float32

	// CodecParallelism bounds each worker's Engine codec lanes (concurrent
	// compress/decompress goroutines); 0 selects GOMAXPROCS. 1 still
	// overlaps codec compute with collective wait, it just doesn't run two
	// tensors' codec work at once.
	CodecParallelism int

	// Fusion sets the Engine's tensor-fusion batching policy (see
	// FusionConfig): many tensors' payloads share one collective round. The
	// zero value keeps the per-tensor schedule. Modeled wire time is charged
	// per bucket, so fusion shows up as fewer per-round latency charges.
	Fusion FusionConfig

	// SyncEvery > 1 enables local-SGD training (Qsparse-local-SGD [20] /
	// periodic averaging [75]): workers take SyncEvery local optimizer
	// steps between synchronizations, then exchange the *compressed model
	// delta* accumulated since the last sync and set every replica to the
	// sync point plus the mean delta. Error feedback applies to the delta.
	// 0 or 1 selects the standard per-iteration gradient exchange of
	// Algorithm 1.
	SyncEvery int

	// Net is the modeled network for virtual-time accounting.
	Net simnet.Link
	// ParamServer switches from peer collectives (ring cost model) to a
	// central parameter server (star cost model), the master-worker
	// architecture §IV-A notes the framework also supports.
	ParamServer bool
	// ComputePerIter, when non-zero, is the modeled accelerator time of one
	// forward/backward pass; when zero the measured Go wall time is used.
	// The paper's testbed trains on V100 GPUs; modeling compute lets the
	// harness reproduce each benchmark's compute/communication balance (see
	// EXPERIMENTS.md).
	//
	// When compute is modeled, measured codec time is rescaled by the same
	// accelerator-to-Go speed ratio (ComputePerIter / measured compute,
	// capped at 1 so codec cost is never inflated): the paper runs
	// compression kernels on the same device as training, so a virtual
	// clock that mixes modeled GPU compute with raw CPU codec time would
	// overstate compression overhead by the Go-vs-GPU gap.
	ComputePerIter time.Duration

	// Checkpoint, when non-nil, enables crash-consistent snapshots of the
	// full per-rank training state (and, via Resume, restores from one).
	Checkpoint *CheckpointConfig
	// OnStep, when set, is called after every completed optimizer step —
	// after any checkpoint for that step has been saved — with the rank and
	// the global step count. Returning an error aborts the worker; the
	// supervisor harness uses this to simulate a crash at a chosen step.
	OnStep func(rank int, step int64) error
	// Rejoin, when non-nil, enables the self-healing path: a worker whose
	// collective fails with the comm.ErrPeerDead verdict reforms the group at
	// the next generation (the collective must support comm.Reformer) and
	// runs the heal sync round — every rank rolls back to the newest
	// checkpoint step they all hold — instead of surfacing the error. Pair it
	// with Checkpoint.Every > 0 so there is a recovery point to roll back to.
	Rejoin *RejoinConfig
	// Elastic, when non-nil, upgrades the self-healing path to elastic
	// world-size membership: a permanently lost rank is voted out after
	// RejoinDeadline and training continues at N−1 (denominators, shards,
	// fan-in, and the autotuner's link model all re-derive from the new
	// Size()); a fresh worker presenting at a join point is absorbed back.
	// Requires Rejoin and a collective implementing comm.Elastic; see
	// ElasticConfig for the shrink semantics (EF-residual loss, epoch
	// replay, policy reset).
	Elastic *ElasticConfig

	// XRank configures the cross-rank observability plane (telemetry/xrank):
	// per-op/step event recording, periodic cross-rank aggregation of the
	// event windows, and the fault flight recorder. The zero value keeps
	// everything off, which leaves the hot path at one atomic load per hook.
	XRank XRankConfig

	// Eval computes the quality metric (rank 0, every EvalEvery epochs,
	// default 1). Optional.
	Eval func(m Model) float64
	// EvalEvery is the evaluation period in epochs.
	EvalEvery int
	// QualityLowerIsBetter flips best-quality tracking (perplexity).
	QualityLowerIsBetter bool
}

// Report is the outcome of a run.
type Report struct {
	// EpochQuality[i] is the metric after epoch i+1 (NaN-free; 0 when Eval
	// is nil or the epoch was skipped by EvalEvery).
	EpochQuality []float64
	// EpochVirtualTime[i] is the cumulative virtual wall time at the end of
	// epoch i+1.
	EpochVirtualTime []time.Duration
	// EpochCommTime[i] is the cumulative modeled communication time at the
	// end of epoch i+1. Unlike EpochVirtualTime it carries no measured
	// codec component, so it is a deterministic function of the exchanged
	// byte volumes — the autotune benchmark compares runs on it.
	EpochCommTime []time.Duration
	// EpochIters[i] is the number of iterations epoch i+1 ran.
	EpochIters []int
	// BestQuality is the best metric seen (the paper reports best-witnessed
	// quality, §V-A).
	BestQuality float64
	// FinalQuality is the metric at the last evaluated epoch.
	FinalQuality float64
	// BytesPerIter is the mean wire bytes one worker sends per iteration.
	BytesPerIter float64
	// RecvPerIter is the mean peer payload bytes one worker receives per
	// iteration — the figure that exposes allgather-heavy sparsifiers' true
	// wire cost (each worker sends one payload but collects n-1).
	RecvPerIter float64
	// Throughput is training samples per virtual second over the last
	// epoch (all workers combined).
	Throughput float64
	// TotalVirtualTime is the virtual wall time of the whole run.
	TotalVirtualTime time.Duration
	// ComputeTime, CodecTime and CommTime decompose rank 0's virtual time.
	ComputeTime, CodecTime, CommTime time.Duration
	// Iters is the number of iterations each worker executed.
	Iters int
	// Switches is the cumulative autotune method-switch count (0 for
	// fixed-method runs; identical on every rank).
	Switches int64
	// FinalPolicy is the autotuner's last per-tensor candidate assignment
	// (nil for fixed-method runs).
	FinalPolicy []string
	// Quality is the per-tensor compression-quality report accumulated over
	// the run: achieved bits/param, EF residual norm, fault/fallback history
	// (see Engine.QualityReport).
	Quality []TensorQuality
}

// Run executes the distributed training loop of Algorithm 1 and returns the
// rank-0 report. Workers are goroutines over an in-process hub; compute and
// codec times are measured, transfer time is modeled on cfg.Net.
func Run(cfg Config) (*Report, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("grace: workers must be positive")
	}
	if cfg.NewModel == nil || cfg.Dataset == nil || cfg.NewOptimizer == nil {
		return nil, fmt.Errorf("grace: incomplete config")
	}
	if (cfg.NewCompressor == nil) == (cfg.NewTuner == nil) {
		return nil, fmt.Errorf("grace: config needs exactly one of NewCompressor or NewTuner")
	}
	if cfg.Checkpoint != nil && cfg.Checkpoint.Resume != nil {
		// Snapshots are per-rank; a single shared Resume cannot restore all
		// workers. Multi-rank restarts drive RunWorker per rank instead.
		return nil, fmt.Errorf("grace: Checkpoint.Resume is per-rank; use RunWorker")
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 1
	}
	beta, gamma := cfg.Beta, cfg.Gamma
	if beta == 0 {
		beta = 1
	}
	if gamma == 0 {
		gamma = 1
	}

	// Surface compressor/policy configuration errors before any worker blocks
	// in a collective; factories are deterministic across ranks.
	if cfg.NewCompressor != nil {
		if _, err := cfg.NewCompressor(0); err != nil {
			return nil, fmt.Errorf("grace: compressor config: %w", err)
		}
	} else if _, err := cfg.NewTuner(); err != nil {
		return nil, fmt.Errorf("grace: autotune config: %w", err)
	}

	var worker func(rank int) comm.Collective
	cluster := simnet.NewCluster(cfg.Net, cfg.Workers)
	if cfg.ParamServer {
		hub := comm.NewPSHub(cfg.Workers)
		worker = func(rank int) comm.Collective { return hub.Worker(rank) }
		cluster = simnet.NewStarCluster(cfg.Net, cfg.Workers)
	} else {
		hub := comm.NewHub(cfg.Workers)
		worker = func(rank int) comm.Collective { return hub.Worker(rank) }
	}

	var (
		wg     sync.WaitGroup
		report *Report
		runErr error
		errMu  sync.Mutex
	)
	fail := func(rank int, err error) {
		errMu.Lock()
		if runErr == nil {
			runErr = fmt.Errorf("grace: worker %d: %w", rank, err)
		}
		errMu.Unlock()
		// Collectives would deadlock with a missing participant; a worker
		// that cannot continue must abort the process-wide run. This only
		// fires on programming errors in compressors, which the per-method
		// unit tests catch first.
		panic(err)
	}

	for rank := 0; rank < cfg.Workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rep, err := RunWorker(cfg, rank, worker(rank), cluster)
			if err != nil {
				fail(rank, err)
			}
			if rank == 0 {
				report = rep
			}
		}(rank)
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	return report, nil
}

// RunWorker executes one worker's share of the training loop over an
// externally provided collective: this is the multi-process entry point
// (cmd/graceworker) where each OS process owns one rank of a real TCP ring.
// cfg.Workers must equal coll.Size(). Quality evaluation and the epoch time
// series are produced on rank 0; other ranks return per-rank accounting
// only.
func RunWorker(cfg Config, rank int, coll comm.Collective, cluster simnet.Cluster) (*Report, error) {
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 1
	}
	beta, gamma := cfg.Beta, cfg.Gamma
	if beta == 0 {
		beta = 1
	}
	if gamma == 0 {
		gamma = 1
	}
	el := cfg.Elastic
	var elColl comm.Elastic
	joinFloor := int64(-1) // JoinOnStart: checkpoint steps at or below are stale
	if el != nil {
		if err := el.validate(&cfg); err != nil {
			return nil, err
		}
		if el.JoinOnStart {
			// A hub joiner blocks here until the members' join beacon absorbs
			// it; a TCP joiner arrives pre-joined through JoinTCPRing (its
			// handle has no JoinGroup), so the miss is not an error. Either
			// way the joiner's own pre-eviction checkpoints are unusable until
			// it has adopted the group's state: the wrapped ListSteps keeps
			// them invisible until the startup sync pins the join floor.
			if j, ok := comm.AsJoiner(coll); ok {
				if _, err := j.JoinGroup(el.rejoinDeadline()); err != nil {
					return nil, fmt.Errorf("grace: elastic join: %w", err)
				}
			}
			if cfg.Rejoin != nil && cfg.Rejoin.ListSteps != nil {
				rj := *cfg.Rejoin
				inner := rj.ListSteps
				rj.ListSteps = func() ([]int64, error) {
					if joinFloor < 0 {
						return nil, nil
					}
					steps, err := inner()
					if err != nil {
						return nil, err
					}
					kept := steps[:0]
					for _, s := range steps {
						if s > joinFloor {
							kept = append(kept, s)
						}
					}
					return kept, nil
				}
				rj.SyncOnStart = true
				cfg.Rejoin = &rj
			}
		}
		ec, ok := comm.AsElastic(coll)
		if !ok {
			return nil, fmt.Errorf("grace: Elastic needs a collective with elastic membership (comm.Elastic)")
		}
		elColl = ec
		// Under elastic membership the collective, not the config, owns the
		// world size: a joiner or a post-shrink restart arrives at whatever
		// size the group currently has.
		cfg.Workers = coll.Size()
	}
	if coll.Size() != cfg.Workers {
		return nil, fmt.Errorf("grace: collective size %d != configured workers %d", coll.Size(), cfg.Workers)
	}

	model := cfg.NewModel(cfg.Seed)
	params := model.Params()
	infos := make([]TensorInfo, len(params))
	for i, p := range params {
		infos[i] = NewTensorInfo(p.Name, p.Value.Shape())
	}
	opt := cfg.NewOptimizer()
	var mem *Memory
	if cfg.UseMemory {
		mem = NewMemory(beta, gamma)
	}
	engOpts := []EngineOption{
		WithCollective(coll),
		WithEngineMemory(mem),
		WithParallelism(cfg.CodecParallelism),
		WithFusion(cfg.Fusion),
	}
	switch {
	case cfg.NewTuner != nil:
		if cfg.NewCompressor != nil {
			return nil, fmt.Errorf("grace: config needs exactly one of NewCompressor or NewTuner")
		}
		tn, err := cfg.NewTuner()
		if err != nil {
			return nil, fmt.Errorf("grace: autotune config: %w", err)
		}
		engOpts = append(engOpts, WithTuner(tn))
	case cfg.NewCompressor != nil:
		engOpts = append(engOpts, WithCompressorFactory(func() (Compressor, error) { return cfg.NewCompressor(rank) }))
	default:
		return nil, fmt.Errorf("grace: config needs exactly one of NewCompressor or NewTuner")
	}
	eng, err := NewEngine(engOpts...)
	if err != nil {
		return nil, err
	}

	// Cross-rank observability: arm the process-wide recorder and, when an
	// aggregation cadence is configured, prepare the piggyback collector.
	var xagg *xrank.Aggregator
	if cfg.XRank.Enable {
		xrank.Default.SetEnabled(true)
		if cfg.XRank.ArtifactsDir != "" {
			xrank.Default.ConfigureFlight(cfg.XRank.ArtifactsDir, cfg.XRank.FlightWindow, 0)
		}
		if cfg.XRank.AggregateEvery > 0 {
			xagg = xrank.NewAggregator(xrank.Default, rank, cfg.Workers)
		}
	}

	// Data shards key off the CURRENT rank under elastic membership (a
	// survivor's index shifts when the group shrinks, re-partitioning the
	// lost rank's shard deterministically across survivors); a static group's
	// current rank is its original rank, so the fallback is the same value.
	shardRank := rank
	if el != nil {
		shardRank = coll.Rank()
	}
	sampler := data.NewSampler(cfg.Dataset.Len(), cfg.Workers, shardRank, cfg.Seed)

	rep := &Report{}
	evaluated := false
	var clock simnet.Clock
	var lastEpochStart time.Duration
	var lastEpochIters int
	var totalBytes, totalRecv int64
	ts := telScope{rank: rank, tid: telemetry.TIDDriver}

	// Local-SGD state: the parameter values at the last synchronization.
	var syncPoint []*tensor.Dense
	if cfg.SyncEvery > 1 {
		syncPoint = make([]*tensor.Dense, len(params))
		for i, p := range params {
			syncPoint[i] = p.Value.Clone()
		}
	}
	sinceSync := 0

	// Step-scoped vectors handed to the Engine, reused every iteration.
	gradVecs := make([][]float32, len(params))
	gradTensors := make([]*tensor.Dense, len(params))

	// Checkpoint resume: restore the full state and fast-forward the loop
	// position. Epoch schedules are pure functions of (seed, epoch), so
	// seeking the sampler and skipping the already-consumed batches of the
	// resume epoch replays exactly the uninterrupted run's remaining batches.
	var globalStep int64
	startEpoch, skipIters := 0, 0
	if rj := cfg.Rejoin; rj != nil {
		if err := rj.validate(); err != nil {
			return nil, err
		}
	}
	if ck := cfg.Checkpoint; ck != nil {
		if (ck.Every > 0 || ck.Final) && ck.Save == nil {
			return nil, fmt.Errorf("grace: CheckpointConfig needs Save when Every or Final is set")
		}
		if ck.Resume != nil {
			pos, err := applySnapshot(&cfg, rank, ck.Resume, model, opt, mem, eng, syncPoint)
			if err != nil {
				return nil, err
			}
			globalStep = pos.step
			startEpoch, skipIters = pos.epoch, pos.iter
			sinceSync = pos.sinceSync
			sampler.Seek(startEpoch)
			// Counted here, at the one successful application, rather than in
			// ckpt.Load: resume negotiation probes many candidate files.
			telemetry.Default.Add(telemetry.CtrCheckpointRestores, 1)
			telemetry.Default.Mark(fmt.Sprintf("restore:step%d", pos.step), rank)
		}
	}

	// resize re-derives every world-size-shaped piece of worker state after a
	// committed elastic membership change: the config's worker count, the
	// data shard (current rank under the new partition), the modeled network
	// cluster, the engine's denominators/fan-in (and, through it, the
	// autotuner's link model), and the xrank aggregator.
	resize := func(m comm.Membership, lost int) error {
		if m.Size() < el.minWorkers() {
			return fmt.Errorf("grace: elastic shrink to %d workers is below MinWorkers %d: %w",
				m.Size(), el.minWorkers(), comm.ErrPeerDead)
		}
		cfg.Workers = m.Size()
		sampler = data.NewSampler(cfg.Dataset.Len(), cfg.Workers, coll.Rank(), cfg.Seed)
		if cfg.ParamServer {
			cluster = simnet.NewStarCluster(cfg.Net, cfg.Workers)
		} else {
			cluster = simnet.NewCluster(cfg.Net, cfg.Workers)
		}
		if err := eng.Pause(); err != nil {
			return err
		}
		err := eng.Rebind(lost)
		eng.Resume()
		if err != nil {
			return err
		}
		if xagg != nil {
			xagg = xrank.NewAggregator(xrank.Default, coll.Rank(), cfg.Workers)
		}
		telemetry.Default.Mark(fmt.Sprintf("elastic:size%d", m.Size()), rank)
		return nil
	}

	// stepDone runs the post-step bookkeeping shared by both training modes:
	// periodic checkpointing first (so a crash right after the boundary can
	// roll back to it), then the OnStep hook.
	stepDone := func(epoch, iter int) error {
		globalStep++
		ck := cfg.Checkpoint
		if ck != nil && ck.Every > 0 && globalStep%int64(ck.Every) == 0 {
			span := ts.start()
			snap, err := captureSnapshot(&cfg, rank, model, opt, mem, eng, syncPoint,
				trainerPos{step: globalStep, epoch: epoch, iter: iter + 1, sinceSync: sinceSync})
			if err != nil {
				return err
			}
			if err := ck.Save(snap); err != nil {
				return fmt.Errorf("grace: checkpoint save at step %d: %w", globalStep, err)
			}
			ts.end(telemetry.PhaseCheckpoint, "", span)
		}
		// Trace aggregation piggybacks one AllgatherBytes at the cadence
		// boundary — same position in every rank's op sequence, so the
		// lockstep contract holds.
		if xagg != nil && globalStep%int64(cfg.XRank.AggregateEvery) == 0 {
			if err := xagg.Exchange(coll); err != nil {
				return fmt.Errorf("grace: xrank trace aggregation at step %d: %w", globalStep, err)
			}
		}
		// Elastic join beacon: at the cadence boundary every member
		// allgathers its pending-join set; a non-empty union unwinds to the
		// heal loop as a growSignal, so the whole group reforms over the
		// same agreed member set at the same op position.
		if elColl != nil && globalStep%int64(el.joinEvery()) == 0 {
			gs, err := joinBeacon(coll, elColl)
			if err != nil {
				return fmt.Errorf("grace: elastic join beacon at step %d: %w", globalStep, err)
			}
			if gs != nil {
				return gs
			}
		}
		if cfg.OnStep != nil {
			if err := cfg.OnStep(rank, globalStep); err != nil {
				return err
			}
		}
		return nil
	}

	// exchange runs one whole-step Engine exchange over gradVecs and
	// accumulates the time/volume accounting.
	exchange := func(codecScale float64) ([][]float32, time.Duration, time.Duration, error) {
		aggs, stepRep, err := eng.Step(gradVecs, infos)
		if err != nil {
			return nil, 0, 0, err
		}
		codecDur := time.Duration(float64(stepRep.CodecTime) * codecScale)
		commDur := ModeledStepCommTime(cluster, stepRep)
		totalBytes += int64(stepRep.SentBytes)
		totalRecv += int64(stepRep.RecvBytes)
		rep.Switches += int64(stepRep.Switches)
		if stepRep.PolicyByTensor != nil {
			rep.FinalPolicy = append(rep.FinalPolicy[:0], stepRep.PolicyByTensor...)
		}
		return aggs, codecDur, commDur, nil
	}

	// syncDeltas exchanges compressed model deltas and resets every replica
	// to syncPoint + mean(delta) (Qsparse-local-SGD's synchronization).
	syncDeltas := func(codecScale float64) (codecDur, commDur time.Duration, err error) {
		for i, p := range params {
			gradVecs[i] = p.Value.Clone().Sub(syncPoint[i]).Data()
		}
		aggs, codecDur, commDur, err := exchange(codecScale)
		if err != nil {
			return 0, 0, err
		}
		for i, p := range params {
			p.Value.CopyFrom(syncPoint[i])
			p.Value.Add(tensor.FromSlice(aggs[i], p.Value.Shape()...))
			syncPoint[i].CopyFrom(p.Value)
		}
		return codecDur, commDur, nil
	}

	// runEpochs is the training loop proper, reading the loop position from
	// the enclosing startEpoch/skipIters so the heal loop below can rewind it.
	runEpochs := func() error {
		for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
			if cfg.LRSchedule != nil {
				opt.SetLR(cfg.LRSchedule(epoch))
			}
			lastEpochStart = clock.Elapsed()
			lastEpochIters = 0
			for iter, batchIdx := range sampler.EpochBatches(cfg.BatchSize) {
				if epoch == startEpoch && iter < skipIters {
					continue
				}
				batch := cfg.Dataset.Batch(batchIdx)
				nn.ZeroGrads(params)
				t0 := time.Now()
				span := ts.start()
				model.ForwardBackward(batch)
				ts.end(telemetry.PhaseCompute, "", span)
				computeDur := time.Since(t0)
				codecScale := 1.0
				if cfg.ComputePerIter > 0 {
					if computeDur > 0 && cfg.ComputePerIter < computeDur {
						codecScale = float64(cfg.ComputePerIter) / float64(computeDur)
					}
					computeDur = cfg.ComputePerIter
				}

				var codecDur, commDur time.Duration
				if cfg.SyncEvery > 1 {
					// Local step on the worker's own gradients; communicate
					// only at sync boundaries.
					grads := make([]*tensor.Dense, len(params))
					for i, p := range params {
						grads[i] = p.Grad
					}
					opt.Step(params, grads)
					sinceSync++
					if sinceSync >= cfg.SyncEvery {
						sinceSync = 0
						var err error
						codecDur, commDur, err = syncDeltas(codecScale)
						if err != nil {
							return err
						}
					}
				} else {
					// Whole-step exchange: the Engine overlaps codec compute for
					// later tensors with earlier tensors' collectives.
					for i, p := range params {
						gradVecs[i] = p.Grad.Data()
					}
					var aggs [][]float32
					var err error
					aggs, codecDur, commDur, err = exchange(codecScale)
					if err != nil {
						return err
					}
					for i, p := range params {
						gradTensors[i] = tensor.FromSlice(aggs[i], p.Grad.Shape()...)
					}
					opt.Step(params, gradTensors)
				}

				clock.Advance(computeDur + codecDur + commDur)
				rep.ComputeTime += computeDur
				rep.CodecTime += codecDur
				rep.CommTime += commDur
				rep.Iters++
				lastEpochIters++
				if err := stepDone(epoch, iter); err != nil {
					return err
				}
			}

			if rank == 0 {
				rep.EpochVirtualTime = append(rep.EpochVirtualTime, clock.Elapsed())
				rep.EpochCommTime = append(rep.EpochCommTime, rep.CommTime)
				rep.EpochIters = append(rep.EpochIters, lastEpochIters)
				q := 0.0
				if cfg.Eval != nil && (epoch+1)%cfg.EvalEvery == 0 {
					q = cfg.Eval(model)
					rep.FinalQuality = q
					better := q > rep.BestQuality
					if cfg.QualityLowerIsBetter {
						better = q < rep.BestQuality
					}
					if !evaluated || better {
						rep.BestQuality = q
						evaluated = true
					}
				}
				rep.EpochQuality = append(rep.EpochQuality, q)
			}
		}
		return nil
	}

	// rewind moves the loop position to a heal sync round's verdict and drops
	// the rank-0 epoch-series entries the rollback will re-produce. Scalar
	// totals (Iters, time and volume sums) intentionally keep the redone
	// work: they measure effort spent, while the epoch series describes the
	// logical training trajectory.
	baseEpoch := startEpoch
	rewind := func(pos trainerPos) {
		globalStep = pos.step
		startEpoch, skipIters = pos.epoch, pos.iter
		sinceSync = pos.sinceSync
		sampler.Seek(startEpoch)
		if rank == 0 {
			keep := pos.epoch - baseEpoch
			if keep < 0 {
				keep = 0
			}
			if keep < len(rep.EpochQuality) {
				rep.EpochQuality = rep.EpochQuality[:keep]
				rep.EpochVirtualTime = rep.EpochVirtualTime[:keep]
				rep.EpochCommTime = rep.EpochCommTime[:keep]
				rep.EpochIters = rep.EpochIters[:keep]
			}
		}
	}

	if rj := cfg.Rejoin; rj != nil && rj.SyncOnStart {
		// A respawned rank syncs with the survivors' recovery barrier before
		// its first step: the heal round replaces the Resume fast-forward.
		pos, gen, err := startupSync(&cfg, rank, coll, model, opt, mem, eng, syncPoint)
		if err != nil {
			return nil, err
		}
		rewind(pos)
		baseEpoch = startEpoch
		if el != nil && el.JoinOnStart {
			// The adopted step is the join floor: everything this rank's
			// checkpoint store holds at or below it predates the join and
			// stays invisible to future heal negotiations.
			joinFloor = pos.step
			// startupSync's fast path never reformed, so its generation is 0;
			// the joiner was absorbed under the committed membership's.
			gen = elColl.Membership().Gen
			if el.OnResize != nil {
				el.OnResize(elColl.Membership(), pos.step)
			}
		}
		if rj.OnHeal != nil {
			rj.OnHeal(gen, pos.step)
		}
	}
	heals := 0
	for {
		err := runEpochs()
		if err == nil {
			break
		}
		rj := cfg.Rejoin

		// Elastic join point: not a failure — the beacon observed pending
		// joiners and every member unwound at the identical step. Reform over
		// the agreed set, re-derive the world-size-shaped state, and run the
		// same heal sync the joiner enters through startupSync.
		var gs *growSignal
		if errors.As(err, &gs) {
			mship, gerr := elColl.ReformGrow(gs.members)
			if gerr != nil {
				return nil, fmt.Errorf("grace: elastic grow: %w", gerr)
			}
			if rerr := resize(mship, 0); rerr != nil {
				return nil, rerr
			}
			pos, herr := healSync(&cfg, rank, coll, model, opt, mem, eng, syncPoint)
			if herr != nil {
				return nil, herr
			}
			rewind(pos)
			if el.OnResize != nil {
				el.OnResize(mship, pos.step)
			}
			if rj.OnHeal != nil {
				rj.OnHeal(mship.Gen, pos.step)
			}
			continue
		}

		if rj == nil || !errors.Is(err, comm.ErrPeerDead) {
			return nil, err
		}
		if heals++; heals > rj.maxHeals() {
			return nil, fmt.Errorf("grace: giving up after %d heals: %w", heals-1, err)
		}
		// Freeze the event window before the reform rewrites the group: the
		// dump captures the conviction and the ops leading up to it. The
		// recorder rate-limits, so a whole group healing at once still yields
		// a bounded artifact set.
		xrank.Default.Flight("heal_peer_dead", err)

		if elColl != nil {
			// Elastic heal: hold the door open for the rejoin deadline, then
			// vote to continue without whoever is still missing. An intact
			// reform (everyone made it back) commits no membership change and
			// needs no resize.
			mship, rerr := elColl.ReformElastic(el.rejoinDeadline())
			if rerr != nil {
				return nil, fmt.Errorf("grace: elastic reform after peer death: %w", rerr)
			}
			if len(mship.Lost) > 0 {
				if rerr := resize(mship, len(mship.Lost)); rerr != nil {
					return nil, rerr
				}
			}
			pos, herr := healSync(&cfg, rank, coll, model, opt, mem, eng, syncPoint)
			if herr != nil {
				return nil, herr
			}
			rewind(pos)
			if len(mship.Lost) > 0 && el.OnResize != nil {
				el.OnResize(mship, pos.step)
			}
			if rj.OnHeal != nil {
				rj.OnHeal(mship.Gen, pos.step)
			}
			continue
		}

		rf, ok := comm.AsReformer(coll)
		if !ok {
			return nil, fmt.Errorf("grace: peer died and the collective cannot reform: %w", err)
		}
		gen, rerr := rf.Reform()
		if rerr != nil {
			return nil, fmt.Errorf("grace: reform after peer death: %w", rerr)
		}
		pos, herr := healSync(&cfg, rank, coll, model, opt, mem, eng, syncPoint)
		if herr != nil {
			return nil, herr
		}
		rewind(pos)
		if rj.OnHeal != nil {
			rj.OnHeal(gen, pos.step)
		}
	}

	// Final trace aggregation picks up the tail since the last cadence tick;
	// every rank participates (it is a collective), rank 0 then renders the
	// merged artifacts. A failure here loses only the tail — whatever earlier
	// ticks merged is still written.
	if xagg != nil {
		if err := xagg.Exchange(coll); err != nil {
			telemetry.Default.Mark("xrank:final-exchange-failed", rank)
		}
		if cfg.XRank.ArtifactsDir != "" {
			if err := xagg.WriteArtifacts(cfg.XRank.ArtifactsDir); err != nil {
				return nil, fmt.Errorf("grace: xrank artifacts: %w", err)
			}
		}
	}

	if ck := cfg.Checkpoint; ck != nil && ck.Final {
		span := ts.start()
		snap, err := captureSnapshot(&cfg, rank, model, opt, mem, eng, syncPoint,
			trainerPos{step: globalStep, epoch: cfg.Epochs, iter: 0, sinceSync: sinceSync})
		if err != nil {
			return nil, err
		}
		if err := ck.Save(snap); err != nil {
			return nil, fmt.Errorf("grace: final checkpoint save: %w", err)
		}
		ts.end(telemetry.PhaseCheckpoint, "", span)
	}

	rep.Quality = eng.QualityReport()
	rep.TotalVirtualTime = clock.Elapsed()
	if rep.Iters > 0 {
		rep.BytesPerIter = float64(totalBytes) / float64(rep.Iters)
		rep.RecvPerIter = float64(totalRecv) / float64(rep.Iters)
	}
	lastDur := clock.Elapsed() - lastEpochStart
	if lastDur > 0 && lastEpochIters > 0 {
		samples := float64(lastEpochIters * cfg.BatchSize * cfg.Workers)
		rep.Throughput = samples / lastDur.Seconds()
	}
	return rep, nil
}

// ModeledStepCommTime charges one StepReport's exchanges against the α-β
// cluster model, bucket by bucket — the same accounting the trainer's
// virtual clock uses. It is exported for harness batteries that replay a
// frozen policy outside a training loop and need the identical cost model.
func ModeledStepCommTime(c simnet.Cluster, rep *StepReport) time.Duration {
	var d time.Duration
	for _, b := range rep.Buckets {
		d += commTimeBucket(c, rep.Tensors[b.Lo:b.Hi])
	}
	return d
}

// commTimeBucket models the transfer time of one collective round — a fusion
// bucket — on the cluster. A singleton bucket is the legacy per-tensor charge;
// a fused bucket merges its tensors' volumes into one round, which is exactly
// the saving fusion exists for: one latency charge instead of len(span).
func commTimeBucket(c simnet.Cluster, span []StepStats) time.Duration {
	if len(span) == 1 {
		return commTime(c, span[0])
	}
	switch span[0].Strategy {
	case Allreduce:
		total := 0
		for _, s := range span {
			total += s.SentBytes
		}
		return c.AllreduceTime(total)
	case Allgather:
		// Per-rank fused frame = framing header + that rank's payloads.
		var sizes []int
		over := comm.FusedOverhead(len(span))
		for _, s := range span {
			if len(sizes) < len(s.GatherSizes) {
				grown := make([]int, len(s.GatherSizes))
				copy(grown, sizes)
				for r := len(sizes); r < len(grown); r++ {
					grown[r] = over
				}
				sizes = grown
			}
			for r, sz := range s.GatherSizes {
				sizes[r] += sz
			}
		}
		return c.AllgatherTime(sizes)
	default:
		// Custom-strategy tensors are never fused; charge per tensor.
		var d time.Duration
		for _, s := range span {
			d += commTime(c, s)
		}
		return d
	}
}

// commTime models the transfer time of one exchange on the cluster.
func commTime(c simnet.Cluster, s StepStats) time.Duration {
	switch s.Strategy {
	case Allreduce:
		return c.AllreduceTime(s.SentBytes)
	case Allgather:
		return c.AllgatherTime(s.GatherSizes)
	case Custom:
		// PowerSGD performs two allreduces (P then Q); model each as half
		// the sent volume.
		return 2 * c.AllreduceTime(s.SentBytes/2)
	default:
		return 0
	}
}
