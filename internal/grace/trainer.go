package grace

import (
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
// (see Config.XRank and package telemetry/xrank). The plane is on when either
// field is set, which enables span and event recording on telemetry.Default.
type XRankConfig struct {
	// AggregateEvery > 0 piggybacks each rank's event window on one extra
	// AllgatherBytes every that many optimizer steps; rank 0 merges the
	// windows into the run's distributed trace, other ranks contribute and
	// discard. The extra collective is part of the lockstep op sequence, so
	// the value must be identical on every rank (like DecodeFallback or
	// Fusion). 0 disables aggregation: events are still recorded locally and
	// remain available to the flight recorder.
	AggregateEvery int
	// ArtifactsDir receives rank 0's merged trace + skew artifacts at run
	// end and every rank's flight-recorder dumps (covering the recorder's
	// default look-back window). Empty leaves the flight recorder disarmed
	// and skips the artifact write.
	ArtifactsDir string
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

	// UseMemory enables the framework error-feedback memory (Eq. 4, with
	// β = γ = 1).
	UseMemory bool

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
	// ParamServer charges communication to a central parameter server (star
	// cost model) instead of a ring of peers, the master-worker architecture
	// §IV-A notes the framework also supports. It selects the cost model
	// only: the workers exchange the same bytes over the same hub.
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
	// full per-rank training state and the recovery paths that roll back to
	// them: resume before the first step, heal after a peer death.
	Checkpoint *CheckpointConfig
	// OnStep, when set, is called after every completed optimizer step —
	// after any checkpoint for that step has been saved — with the rank and
	// the global step count. Returning an error aborts the worker; the
	// supervisor harness uses this to simulate a crash at a chosen step.
	OnStep func(rank int, step int64) error
	// Elastic, when non-nil, upgrades the self-healing path to elastic
	// world-size membership: a permanently lost rank is voted out after
	// RejoinDeadline and training continues at N−1 (denominators, shards,
	// fan-in, and the autotuner's link model all re-derive from the new
	// Size()); a fresh worker presenting at a join point is absorbed back.
	// Requires Checkpoint.Heal and a collective implementing comm.Elastic;
	// see ElasticConfig for the shrink semantics (EF-residual loss, epoch
	// replay, policy reset).
	Elastic *ElasticConfig

	// XRank configures the cross-rank observability plane (telemetry/xrank):
	// per-op/step event recording, periodic cross-rank aggregation of the
	// event windows, and the fault flight recorder. The zero value keeps
	// everything off, which leaves the hot path at one atomic load per hook.
	XRank XRankConfig

	// Eval computes the quality metric (rank 0, after every epoch). Optional.
	Eval func(m Model) float64
	// QualityLowerIsBetter flips best-quality tracking (perplexity).
	QualityLowerIsBetter bool
}

// Report is the outcome of a run.
type Report struct {
	// EpochQuality[i] is the metric after epoch i+1 (NaN-free; 0 when Eval
	// is nil).
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
// codec times are measured, transfer time is modeled on cfg.Net. The first
// worker to fail aborts the hub, and Run returns its error once every worker
// has unwound. With cfg.Checkpoint every worker saves to, and resumes from,
// the one rank-keyed Store.
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

	// Surface compressor/policy configuration errors before any worker blocks
	// in a collective; factories are deterministic across ranks.
	if cfg.NewCompressor != nil {
		if _, err := cfg.NewCompressor(0); err != nil {
			return nil, fmt.Errorf("grace: compressor config: %w", err)
		}
	} else if _, err := cfg.NewTuner(); err != nil {
		return nil, fmt.Errorf("grace: autotune config: %w", err)
	}

	hub := comm.NewHub(cfg.Workers)
	cluster := cfg.Cluster()

	var (
		wg     sync.WaitGroup
		report *Report
		failed sync.Once
		first  error // the earliest worker failure: the cause, not its echoes
	)
	for rank := 0; rank < cfg.Workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rep, err := RunWorker(cfg, rank, hub.Worker(rank), cluster)
			if err != nil {
				// The peers would wait in their next collective for a rank
				// that is gone: abort the hub so they fail out of it too.
				err = fmt.Errorf("grace: worker %d: %w", rank, err)
				failed.Do(func() { first = err })
				hub.Abort(err)
			}
			if rank == 0 {
				report = rep
			}
		}(rank)
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return report, nil
}

// Cluster builds the modeled network matching the run's communication
// architecture and current worker count: a ring of peers, or a star around
// the parameter server.
func (cfg *Config) Cluster() simnet.Cluster {
	if cfg.ParamServer {
		return simnet.NewStarCluster(cfg.Net, cfg.Workers)
	}
	return simnet.NewCluster(cfg.Net, cfg.Workers)
}

// RunWorker executes one worker's share of the training loop over an
// externally provided collective: this is the multi-process entry point
// (cmd/graceworker) where each OS process owns one rank of a real TCP ring.
// cfg.Workers must equal coll.Size(). Quality evaluation and the epoch time
// series are produced on rank 0; other ranks return per-rank accounting
// only.
//
// restore runs the start-up sync round when asked to; runEpochs trains until
// it finishes or unwinds with a cause; heal either repairs the group and
// rewinds the loop position, so the next runEpochs replays from the agreed
// checkpoint, or declares the cause fatal.
func RunWorker(cfg Config, rank int, coll comm.Collective, cluster simnet.Cluster) (*Report, error) {
	w, err := newWorker(cfg, rank, coll, cluster)
	if err != nil {
		return nil, err
	}
	if err := w.restore(); err != nil {
		return nil, err
	}
	for {
		cause := w.runEpochs()
		if cause == nil {
			break
		}
		if err := w.heal(cause); err != nil {
			return nil, err
		}
	}
	return w.finish()
}

// worker is one rank's training state, shared by RunWorker's phases (setup,
// the epoch loop, checkpointing, the heal path) and confined to the goroutine
// that called RunWorker.
type worker struct {
	cfg Config // private copy; cfg.Workers tracks the committed world size
	// rank is the worker's original identity: it keys checkpoint ownership,
	// compressor seeding and telemetry for life, while coll.Rank() is its
	// current index in the (possibly resized) group.
	rank    int
	coll    comm.Collective
	elastic comm.Elastic // nil unless cfg.Elastic is set
	cluster simnet.Cluster

	model     Model
	params    []*nn.Param
	infos     []TensorInfo
	opt       optim.Optimizer
	mem       *Memory // nil when error feedback is off
	eng       *Engine
	syncPoint []*tensor.Dense // local SGD: parameters at the last sync (nil when off)
	sampler   *data.Sampler
	xagg      *xrank.Aggregator // nil unless trace aggregation is on

	// Loop position: runEpochs starts at (startEpoch, skipIters), rewind
	// moves it. Epoch schedules are pure functions of (seed, epoch), so
	// seeking the sampler and skipping the start epoch's consumed batches
	// replays exactly the uninterrupted run's remaining batches.
	step                  int64 // completed optimizer steps (the lockstep position)
	startEpoch, skipIters int
	sinceSync             int // local-SGD steps since the last model sync
	baseEpoch             int // epoch the rank-0 epoch series starts at
	heals                 int // peer-death heals so far, bounded by maxHeals
	// joinFloor hides stale checkpoints from heal negotiations: local steps
	// at or below it are not offered. -1 (everything visible) except on a
	// JoinOnStart worker, whose pre-eviction checkpoints are unusable: there
	// it is MaxInt64 until the startup sync lands, then the adopted step.
	joinFloor int64

	gradVecs    [][]float32     // step-scoped vectors handed to the Engine,
	gradTensors []*tensor.Dense // reused every iteration

	rep                   *Report // and its accumulators
	evaluated             bool
	clock                 simnet.Clock
	lastEpochStart        time.Duration
	lastEpochIters        int
	totalBytes, totalRecv int64
	ts                    telScope
}

// newWorker validates the configuration and builds the worker's model,
// optimizer, memory and engine over coll. A JoinOnStart worker blocks in here
// until the group absorbs it.
func newWorker(cfg Config, rank int, coll comm.Collective, cluster simnet.Cluster) (*worker, error) {
	w := &worker{cfg: cfg, rank: rank, coll: coll, cluster: cluster, joinFloor: -1,
		rep: &Report{}, ts: telScope{rank: rank, tid: telemetry.TIDDriver}}
	if cfg.Elastic != nil {
		if err := w.bindElastic(); err != nil {
			return nil, err
		}
		cfg = w.cfg // bindElastic hands Workers to the collective
	}
	if coll.Size() != cfg.Workers {
		return nil, fmt.Errorf("grace: collective size %d != configured workers %d", coll.Size(), cfg.Workers)
	}
	if ck := cfg.Checkpoint; ck != nil && ck.Store == nil {
		return nil, fmt.Errorf("grace: CheckpointConfig needs a Store")
	}

	w.model = cfg.NewModel(cfg.Seed)
	w.params = w.model.Params()
	w.infos = make([]TensorInfo, len(w.params))
	for i, p := range w.params {
		w.infos[i] = NewTensorInfo(p.Name, p.Value.Shape())
	}
	w.opt = cfg.NewOptimizer()
	if cfg.UseMemory {
		w.mem = NewMemory(1, 1)
	}
	engOpts := []EngineOption{
		WithCollective(coll),
		WithEngineMemory(w.mem),
		WithParallelism(cfg.CodecParallelism),
		WithFusion(cfg.Fusion),
	}
	switch {
	case (cfg.NewTuner == nil) == (cfg.NewCompressor == nil):
		return nil, fmt.Errorf("grace: config needs exactly one of NewCompressor or NewTuner")
	case cfg.NewTuner != nil:
		tn, err := cfg.NewTuner()
		if err != nil {
			return nil, fmt.Errorf("grace: autotune config: %w", err)
		}
		engOpts = append(engOpts, WithTuner(tn))
	default:
		engOpts = append(engOpts, WithCompressorFactory(func() (Compressor, error) { return cfg.NewCompressor(rank) }))
	}
	var err error
	if w.eng, err = NewEngine(engOpts...); err != nil {
		return nil, err
	}

	// Cross-rank observability: arm the process-wide recorder and, when an
	// aggregation cadence is configured, prepare the piggyback collector.
	if xr := cfg.XRank; xr.AggregateEvery > 0 || xr.ArtifactsDir != "" {
		telemetry.Default.Enable(true)
		if xr.ArtifactsDir != "" {
			telemetry.Default.ConfigureFlight(xr.ArtifactsDir)
		}
		if xr.AggregateEvery > 0 {
			w.xagg = xrank.NewAggregator(telemetry.Default, rank, cfg.Workers)
		}
	}

	// Data shards key off the CURRENT rank under elastic membership (a
	// survivor's index shifts when the group shrinks, re-partitioning the
	// lost rank's shard deterministically across survivors); a static group's
	// current rank is its original rank, so the fallback is the same value.
	shardRank := rank
	if w.elastic != nil {
		shardRank = coll.Rank()
	}
	w.sampler = data.NewSampler(cfg.Dataset.Len(), cfg.Workers, shardRank, cfg.Seed)
	if cfg.SyncEvery > 1 {
		w.syncPoint = make([]*tensor.Dense, len(w.params))
		for i, p := range w.params {
			w.syncPoint[i] = p.Value.Clone()
		}
	}
	w.gradVecs = make([][]float32, len(w.params))
	// What the optimizer steps on: in local-SGD mode the parameters' own
	// gradients, otherwise headers trainStep re-points at the Engine's
	// (reused) aggregate buffers.
	w.gradTensors = make([]*tensor.Dense, len(w.params))
	for i, p := range w.params {
		if cfg.SyncEvery > 1 {
			w.gradTensors[i] = p.Grad
		} else {
			w.gradTensors[i] = new(tensor.Dense)
		}
	}
	return w, nil
}

// stepDone runs the post-step bookkeeping shared by both training modes:
// periodic checkpointing first (so a crash right after the boundary can roll
// back to it), then the lockstep piggyback collectives, then the OnStep hook.
func (w *worker) stepDone(epoch, iter int) error {
	w.step++
	if ck := w.cfg.Checkpoint; ck != nil && ck.Every > 0 && w.step%int64(ck.Every) == 0 {
		pos := trainerPos{step: w.step, epoch: epoch, iter: iter + 1, sinceSync: w.sinceSync}
		if err := w.checkpoint(pos); err != nil {
			return fmt.Errorf("grace: checkpoint save at step %d: %w", w.step, err)
		}
	}
	// Trace aggregation piggybacks one AllgatherBytes at the cadence
	// boundary — same position in every rank's op sequence, so the
	// lockstep contract holds.
	if w.xagg != nil && w.step%int64(w.cfg.XRank.AggregateEvery) == 0 {
		if err := w.xagg.Exchange(w.coll); err != nil {
			return fmt.Errorf("grace: xrank trace aggregation at step %d: %w", w.step, err)
		}
	}
	// Elastic join beacon: at every step boundary the members allgather
	// their pending-join sets; a non-empty union unwinds to heal as a
	// growSignal, so the whole group reforms over the same agreed member set
	// at the same op position.
	if w.elastic != nil {
		gs, err := joinBeacon(w.coll, w.elastic)
		if err != nil {
			return fmt.Errorf("grace: elastic join beacon at step %d: %w", w.step, err)
		}
		if gs != nil {
			return gs
		}
	}
	if w.cfg.OnStep != nil {
		return w.cfg.OnStep(w.rank, w.step)
	}
	return nil
}

// exchange runs one whole-step Engine exchange over gradVecs and accumulates
// the time/volume accounting.
func (w *worker) exchange(codecScale float64) (aggs [][]float32, codecDur, commDur time.Duration, err error) {
	aggs, stepRep, err := w.eng.Step(w.gradVecs, w.infos)
	if err != nil {
		return nil, 0, 0, err
	}
	codecDur = time.Duration(float64(stepRep.CodecTime) * codecScale)
	commDur = ModeledStepCommTime(w.cluster, stepRep)
	w.totalBytes += int64(stepRep.SentBytes)
	w.totalRecv += int64(stepRep.RecvBytes)
	w.rep.Switches += int64(stepRep.Switches)
	if stepRep.PolicyByTensor != nil {
		w.rep.FinalPolicy = append(w.rep.FinalPolicy[:0], stepRep.PolicyByTensor...)
	}
	return aggs, codecDur, commDur, nil
}

// trainStep runs one iteration of Algorithm 1 on batch: forward/backward,
// the compressed exchange (or, in local-SGD mode, a local step with a delta
// sync every SyncEvery iterations), the optimizer update, and the virtual
// clock accounting.
func (w *worker) trainStep(batch data.Batch) error {
	cfg := &w.cfg
	nn.ZeroGrads(w.params)
	t0 := time.Now()
	span := w.ts.start()
	w.model.ForwardBackward(batch)
	w.ts.end(telemetry.PhaseCompute, "", span)
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
		// Local step on the worker's own gradients; communicate only at
		// sync boundaries.
		w.opt.Step(w.params, w.gradTensors)
		w.sinceSync++
		if w.sinceSync >= cfg.SyncEvery {
			// Synchronize (Qsparse-local-SGD): exchange the compressed model
			// deltas and reset every replica to syncPoint + mean(delta).
			w.sinceSync = 0
			for i, p := range w.params {
				w.gradVecs[i] = p.Value.Clone().Sub(w.syncPoint[i]).Data()
			}
			aggs, cd, md, err := w.exchange(codecScale)
			if err != nil {
				return err
			}
			codecDur, commDur = cd, md
			for i, p := range w.params {
				p.Value.CopyFrom(w.syncPoint[i])
				p.Value.Add(tensor.FromSlice(aggs[i], p.Value.Shape()...))
				w.syncPoint[i].CopyFrom(p.Value)
			}
		}
	} else {
		// Whole-step exchange: the Engine overlaps codec compute for later
		// tensors with earlier tensors' collectives.
		for i, p := range w.params {
			w.gradVecs[i] = p.Grad.Data()
		}
		aggs, cd, md, err := w.exchange(codecScale)
		if err != nil {
			return err
		}
		codecDur, commDur = cd, md
		for i, p := range w.params {
			w.gradTensors[i].Wrap(aggs[i], p.Grad.Shape()...)
		}
		w.opt.Step(w.params, w.gradTensors)
	}

	w.clock.Advance(computeDur + codecDur + commDur)
	w.rep.ComputeTime += computeDur
	w.rep.CodecTime += codecDur
	w.rep.CommTime += commDur
	w.rep.Iters++
	w.lastEpochIters++
	return nil
}

// runEpochs is the training loop proper, starting from the worker's loop
// position so heal can rewind it. It returns nil when the run is complete and
// the unwind cause otherwise.
func (w *worker) runEpochs() error {
	cfg := &w.cfg
	first := w.startEpoch
	for epoch := first; epoch < cfg.Epochs; epoch++ {
		w.lastEpochStart = w.clock.Elapsed()
		w.lastEpochIters = 0
		for iter, batchIdx := range w.sampler.EpochBatches(cfg.BatchSize) {
			if epoch == first && iter < w.skipIters {
				continue
			}
			if err := w.trainStep(cfg.Dataset.Batch(batchIdx)); err != nil {
				return err
			}
			if err := w.stepDone(epoch, iter); err != nil {
				return err
			}
		}
		if w.rank != 0 {
			continue
		}
		rep := w.rep
		rep.EpochVirtualTime = append(rep.EpochVirtualTime, w.clock.Elapsed())
		rep.EpochCommTime = append(rep.EpochCommTime, rep.CommTime)
		rep.EpochIters = append(rep.EpochIters, w.lastEpochIters)
		q := 0.0
		if cfg.Eval != nil {
			q = cfg.Eval(w.model)
			rep.FinalQuality = q
			better := q > rep.BestQuality
			if cfg.QualityLowerIsBetter {
				better = q < rep.BestQuality
			}
			if !w.evaluated || better {
				rep.BestQuality = q
				w.evaluated = true
			}
		}
		rep.EpochQuality = append(rep.EpochQuality, q)
	}
	return nil
}

// rewind moves the loop position to pos — a restored snapshot's or a heal
// sync round's verdict — and drops the rank-0 epoch-series entries the
// rollback will re-produce. Scalar totals (Iters, time and volume sums)
// intentionally keep the redone work: they measure effort spent, while the
// epoch series describes the logical training trajectory.
func (w *worker) rewind(pos trainerPos) {
	w.step = pos.step
	w.startEpoch, w.skipIters = pos.epoch, pos.iter
	w.sinceSync = pos.sinceSync
	w.sampler.Seek(w.startEpoch)
	rep := w.rep
	if keep := max(pos.epoch-w.baseEpoch, 0); keep < len(rep.EpochQuality) {
		rep.EpochQuality = rep.EpochQuality[:keep]
		rep.EpochVirtualTime = rep.EpochVirtualTime[:keep]
		rep.EpochCommTime = rep.EpochCommTime[:keep]
		rep.EpochIters = rep.EpochIters[:keep]
	}
}

// finish runs the end-of-run collectives and bookkeeping: the final trace
// aggregation, the terminal checkpoint, and the report's derived figures.
func (w *worker) finish() (*Report, error) {
	cfg, rep := &w.cfg, w.rep
	// Final trace aggregation picks up the tail since the last cadence tick;
	// every rank participates (it is a collective), rank 0 then renders the
	// merged artifacts. A failure here loses only the tail — whatever earlier
	// ticks merged is still written.
	if w.xagg != nil {
		if err := w.xagg.Exchange(w.coll); err != nil {
			telemetry.Default.RecordFault(w.rank, telemetry.OpAllgather, w.step, telemetry.FaultXRank, 0)
		}
		if cfg.XRank.ArtifactsDir != "" {
			if err := w.xagg.WriteArtifacts(cfg.XRank.ArtifactsDir); err != nil {
				return nil, fmt.Errorf("grace: xrank artifacts: %w", err)
			}
		}
	}
	if cfg.Checkpoint != nil {
		pos := trainerPos{step: w.step, epoch: cfg.Epochs, iter: 0, sinceSync: w.sinceSync}
		if err := w.checkpoint(pos); err != nil {
			return nil, fmt.Errorf("grace: final checkpoint save: %w", err)
		}
	}

	rep.Quality = w.eng.QualityReport()
	rep.TotalVirtualTime = w.clock.Elapsed()
	if rep.Iters > 0 {
		rep.BytesPerIter = float64(w.totalBytes) / float64(rep.Iters)
		rep.RecvPerIter = float64(w.totalRecv) / float64(rep.Iters)
	}
	lastDur := w.clock.Elapsed() - w.lastEpochStart
	if lastDur > 0 && w.lastEpochIters > 0 {
		samples := float64(w.lastEpochIters * cfg.BatchSize * cfg.Workers)
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
// bucket — on the cluster. A fused bucket merges its tensors' volumes into one
// round, which is exactly the saving fusion exists for: one latency charge
// instead of len(span). An unfused tensor is a bucket of one, whose frame is
// its bare payload (comm.FusedOverhead is 0 there).
func commTimeBucket(c simnet.Cluster, span []StepStats) time.Duration {
	switch span[0].Strategy {
	case Allreduce:
		total := 0
		for _, s := range span {
			total += s.SentBytes
		}
		return c.AllreduceTime(total)
	case Allgather:
		// Per-rank frame = framing header + that rank's payloads. The usual
		// group sizes fit the stack array, so the hot path does not allocate.
		var few [16]int
		sizes := append(few[:0], span[0].GatherSizes...)
		for r := range sizes {
			sizes[r] += comm.FusedOverhead(len(span))
		}
		for _, s := range span[1:] {
			for r, sz := range s.GatherSizes {
				sizes[r] += sz
			}
		}
		return c.AllgatherTime(sizes)
	case Custom:
		// Never fused. PowerSGD performs two allreduces (P then Q); model
		// each as half the sent volume.
		return 2 * c.AllreduceTime(span[0].SentBytes/2)
	default:
		return 0
	}
}
