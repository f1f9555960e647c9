package grace

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/telemetry"
	"repro/internal/telemetry/xrank"
)

// ElasticConfig opts a training run into elastic world-size membership: when
// a rank is permanently lost (its retry budget and the rejoin deadline both
// exhausted), the survivors vote to reform at world size N−1 and training
// continues — averaging denominators, allgather fan-in, and the autotuner's
// link model all re-derive from the new Size(), and the lost rank's data
// shard is deterministically re-partitioned across the survivors. A fresh
// worker presenting at a later step boundary is absorbed back, restoring the
// original world size.
//
// Semantics of a shrink, explicitly:
//
//   - The evicted rank's error-feedback residuals are DECLARED LOST. Every
//     survivor's quality accumulators record the drop (TensorQuality.EFDrops,
//     telemetry counter elastic_ef_drops_total); the gradient mass the dead
//     rank's residual held is simply gone from the optimization, exactly as
//     if that rank had flushed to /dev/null. This is the standard elastic
//     trade-off — residual state is rank-local by construction.
//   - The group rolls back to the newest checkpoint step every survivor
//     can load (the same sync round as single-rank rejoin), then re-runs
//     the interrupted epoch from its start under the N−1 partition: the
//     sampler is a pure function of (dataset length, workers, rank, seed),
//     so every survivor derives the identical new shard assignment with no
//     extra coordination.
//   - The autotuner's policy state is reset deterministically on every
//     survivor (its signature pins the worker count), so post-shrink policy
//     trajectories stay rank-identical but are not comparable to the
//     pre-shrink run.
//
// Requires Checkpoint.Heal (the sync round is the rollback machinery) and
// Checkpoint.Every > 0 (for a rollback point); the collective must implement
// comm.Elastic.
type ElasticConfig struct {
	// RejoinDeadline is how long survivors hold the door open for a lost
	// rank before voting to shrink (phase 1 of the reform protocol). A rank
	// that re-presents within the deadline rejoins an intact group and
	// nothing shrinks. 0 selects 10s.
	RejoinDeadline time.Duration
	// JoinOnStart marks this worker as a fresh joiner: before its first step
	// it presents at the group's join point (comm.Joiner.JoinGroup), adopts
	// the survivors' state through the start-up sync round (as if
	// Checkpoint.Resume were set), and starts training as a member. Its
	// checkpoints older than the join are ignored.
	JoinOnStart bool
	// OnResize, when set, is called after each committed membership change
	// (shrink or grow) with the new membership and the step the group rolled
	// back to.
	OnResize func(m comm.Membership, step int64)
}

func (el *ElasticConfig) rejoinDeadline() time.Duration {
	if el.RejoinDeadline > 0 {
		return el.RejoinDeadline
	}
	return 10 * time.Second
}

// minWorkers is the smallest world size an elastic run may degrade to; a
// shrink that would go below it fails the run instead. A ring needs two
// members, and a singleton "group" is training alone, which the operator
// should opt into explicitly by restarting, not slide into.
const minWorkers = 2

func (el *ElasticConfig) validate(cfg *Config) error {
	if ck := cfg.Checkpoint; ck == nil || !ck.Heal || ck.Every <= 0 {
		return fmt.Errorf("grace: Elastic requires Checkpoint.Heal and Checkpoint.Every > 0 (a shrink heals back to a checkpoint)")
	}
	if cfg.SyncEvery > 1 {
		return fmt.Errorf("grace: Elastic does not support local-SGD runs (SyncEvery > 1)")
	}
	return nil
}

// bindElastic is newWorker's elastic half: it validates the configuration,
// presents a JoinOnStart worker at the group's join point, and hands the
// world size over to the collective.
func (w *worker) bindElastic() error {
	el := w.cfg.Elastic
	if err := el.validate(&w.cfg); err != nil {
		return err
	}
	if el.JoinOnStart {
		// A hub joiner blocks here until the members' join beacon absorbs
		// it; a TCP joiner arrives pre-joined through JoinTCPRing (its
		// handle has no JoinGroup), so the miss is not an error. Either way
		// the joiner's own pre-eviction checkpoints are unusable until it
		// has adopted the group's state: the join floor keeps them invisible
		// until the start-up sync round pins it.
		if j, ok := comm.AsJoiner(w.coll); ok {
			if _, err := j.JoinGroup(el.rejoinDeadline()); err != nil {
				return fmt.Errorf("grace: elastic join: %w", err)
			}
		}
		w.joinFloor = math.MaxInt64
	}
	ec, ok := comm.AsElastic(w.coll)
	if !ok {
		return fmt.Errorf("grace: Elastic needs a collective with elastic membership (comm.Elastic)")
	}
	w.elastic = ec
	// Under elastic membership the collective, not the config, owns the
	// world size: a joiner or a post-shrink restart arrives at whatever size
	// the group currently has.
	w.cfg.Workers = w.coll.Size()
	return nil
}

// resize re-derives every world-size-shaped piece of worker state after a
// committed elastic membership change: the config's worker count, the data
// shard (current rank under the new partition), the modeled network cluster,
// the engine's denominators/fan-in (and, through it, the autotuner's link
// model; the evicted ranks' error-feedback residuals are counted as dropped),
// and the xrank aggregator.
func (w *worker) resize(m comm.Membership) error {
	if m.Size() < minWorkers {
		return fmt.Errorf("grace: elastic shrink to %d workers is below the floor of %d: %w",
			m.Size(), minWorkers, comm.ErrPeerDead)
	}
	cfg := &w.cfg
	cfg.Workers = m.Size()
	w.sampler = data.NewSampler(cfg.Dataset.Len(), cfg.Workers, w.coll.Rank(), cfg.Seed)
	w.cluster = cfg.Cluster()
	if err := w.eng.Pause(); err != nil {
		return err
	}
	err := w.eng.Rebind(len(m.Lost))
	w.eng.Resume()
	if err != nil {
		return err
	}
	if w.xagg != nil {
		w.xagg = xrank.NewAggregator(telemetry.Default, w.coll.Rank(), cfg.Workers)
	}
	telemetry.Default.RecordFault(w.rank, telemetry.OpReform, w.step, telemetry.FaultResize, int64(m.Size()))
	return nil
}

// growSignal is the internal error the step hook raises when the elastic
// join beacon observes pending joiners: it unwinds the training loop to the
// heal loop, which reforms the group over the agreed member set. It is not a
// failure — no training state is damaged — just a control transfer to the
// same rollback machinery a heal uses, so every member rewinds to an
// identical step before the joiner syncs.
type growSignal struct {
	members []int // agreed post-grow member set (original ranks, sorted)
}

func (g *growSignal) Error() string {
	return fmt.Sprintf("grace: elastic join point: growing to members %v", g.members)
}

// joinBeacon is the step-boundary grow handshake: every member allgathers its
// locally observed pending-join set (a joiner's registration lands on ONE
// member — whichever answered its request first — so the union is what makes
// the observation collective). When the union is empty it returns (nil, nil)
// and the step completes normally; otherwise it returns the growSignal that
// unwinds the training loop to the heal loop, carrying the agreed post-grow
// member set. The allgather itself keeps every rank's op sequence aligned:
// all members run the beacon at the same step, so they all unwind together.
func joinBeacon(coll comm.Collective, el comm.Elastic) (*growSignal, error) {
	pend := el.PendingJoins()
	steps := make([]int64, len(pend))
	for i, p := range pend {
		steps[i] = int64(p)
	}
	lists, err := coll.AllgatherBytes(encodeStepList(steps))
	if err != nil {
		return nil, err
	}
	agreed := make(map[int]bool)
	for r, b := range lists {
		l, derr := decodeStepList(b)
		if derr != nil {
			return nil, fmt.Errorf("rank %d sent a malformed pending-join list: %w", r, derr)
		}
		for _, j := range l {
			agreed[int(j)] = true
		}
	}
	if len(agreed) == 0 {
		return nil, nil
	}
	for _, m := range el.Membership().Members {
		agreed[m] = true
	}
	gs := &growSignal{}
	for m := range agreed {
		gs.members = append(gs.members, m)
	}
	sort.Ints(gs.members)
	return gs, nil
}
