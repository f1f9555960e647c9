package grace

import (
	"fmt"

	"repro/internal/optim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ParamTensor is one named dense tensor captured in a Snapshot (a model
// parameter or a local-SGD sync-point copy).
type ParamTensor struct {
	Name  string
	Shape []int
	Data  []float32
}

// Snapshot is the complete per-rank training state at an optimizer-step
// boundary. Restoring it into an identically configured worker and
// replaying the remaining batches reproduces the uninterrupted run bit for
// bit: model parameters, optimizer slots, the error-feedback residual
// memory, compressor-internal codec state (DGC momentum/accumulators, QSGD
// rounding RNG streams), and the loop position are all covered. The
// serialized on-disk form lives in internal/ckpt.
type Snapshot struct {
	// Step counts completed optimizer steps (the global lockstep position).
	Step int64
	// Epoch and Iter locate the training loop: the next batch to process is
	// batch Iter of epoch Epoch.
	Epoch, Iter int
	// SinceSync is the local-SGD counter (steps since the last model sync).
	SinceSync int
	// Seed, Rank and Workers identify the run; restores validate them so a
	// checkpoint cannot silently resume a different configuration.
	Seed    uint64
	Rank    int
	Workers int
	// Method is the compression method name the run uses.
	Method string
	// Fusion is the engine's tensor-fusion policy. It is part of the
	// collective sequence (the bucket plan must match on every rank), so
	// restores validate it like Method; checkpoints written before fusion
	// existed carry the zero value and resume unfused runs unchanged.
	Fusion FusionConfig
	// Params are the model parameters in Params() order.
	Params []ParamTensor
	// SyncPoint is the local-SGD synchronization point (nil when SyncEvery
	// is off).
	SyncPoint []ParamTensor
	// Opt is the optimizer state, index-ordered against Params.
	Opt optim.State
	// Memory is the framework error-feedback residual per tensor name (nil
	// when EF memory is off).
	Memory map[string][]float32
	// Codec is the compressor-internal state (empty for stateless methods).
	Codec EngineCodecState
	// Tuner is the autotuning policy state (nil for fixed-method runs).
	// Restoring it replays the policy trajectory bitwise, so a killed and
	// resumed autotuned run issues the identical collective sequence.
	Tuner *TunerState
}

// Store persists per-rank snapshots. Every method is keyed by the worker's
// original rank, so one Store serves every rank of a run; internal/ckpt.Dir
// is the on-disk implementation. The grace package keeps no disk dependency.
type Store interface {
	// Save persists s as rank s.Rank's checkpoint at step s.Step.
	Save(s *Snapshot) error
	// Steps lists the steps of rank's checkpoints that load, in any order.
	// A checkpoint that would fail to load must not be listed: the sync
	// round agrees on a step from these lists, and every checkpointed rank
	// then loads its own.
	Steps(rank int) ([]int64, error)
	// Load returns rank's checkpoint at step.
	Load(rank int, step int64) (*Snapshot, error)
	// Encode and Decode serialize a snapshot for the donor transfer, which
	// hands a rank without checkpoints another rank's state.
	Encode(s *Snapshot) []byte
	Decode(b []byte) (*Snapshot, error)
}

// CheckpointConfig wires crash-consistent checkpointing and recovery into a
// training run. Every rollback — a whole-group restart, a respawned rank, an
// elastic joiner, a heal after a peer death — is one sync round over Store
// (see worker.syncRound).
type CheckpointConfig struct {
	// Store persists the snapshots; required. The terminal state is always
	// saved after the last step, so a completed run is recoverable too. A
	// Save error aborts the worker — a run that cannot persist its progress
	// should fail loudly, not lose recovery points silently.
	Store Store
	// Every is the snapshot period in optimizer steps; 0 saves the terminal
	// state only. All ranks run in lockstep, so every rank snapshots at the
	// same steps.
	Every int
	// Resume runs the sync round before the first step: the group agrees on
	// the newest step every checkpointed rank can load, and a rank without
	// one adopts a donor's snapshot. When no rank holds a checkpoint the
	// group starts fresh. Set it on every rank of a restarted group, and on a
	// single respawned rank joining survivors that are healing.
	Resume bool
	// Heal enables the self-healing path: a worker whose collective fails
	// with the comm.ErrPeerDead verdict reforms the group at the next
	// generation (the collective must support comm.Reformer) and runs the
	// sync round instead of surfacing the error. A heal with no checkpoint
	// anywhere is fatal.
	Heal bool
	// OnHeal, when set, is called after each sync round that restored state
	// (at start-up or after a heal) with the group generation and the step
	// the group rolled back to.
	OnHeal func(gen uint64, step int64)
}

// trainerPos is the loop position a snapshot pins.
type trainerPos struct {
	step      int64
	epoch     int
	iter      int
	sinceSync int
}

// checkpoint captures the worker's state at pos and saves it to the Store.
func (w *worker) checkpoint(pos trainerPos) error {
	span := w.ts.start()
	snap, err := w.captureSnapshot(pos)
	if err != nil {
		return err
	}
	if err := w.cfg.Checkpoint.Store.Save(snap); err != nil {
		return err
	}
	w.ts.end(telemetry.PhaseCheckpoint, "", span)
	return nil
}

// captureSnapshot deep-copies the worker's full training state.
func (w *worker) captureSnapshot(pos trainerPos) (*Snapshot, error) {
	sf, ok := w.opt.(optim.Stateful)
	if !ok {
		return nil, fmt.Errorf("grace: optimizer %q does not export state; checkpointing needs optim.Stateful", w.opt.Name())
	}
	s := &Snapshot{
		Step:      pos.step,
		Epoch:     pos.epoch,
		Iter:      pos.iter,
		SinceSync: pos.sinceSync,
		Seed:      w.cfg.Seed,
		Rank:      w.rank,
		Workers:   w.cfg.Workers,
		Method:    w.eng.Method(),
		Fusion:    w.eng.Fusion(),
		Opt:       sf.State(w.params),
		Codec:     w.eng.CodecState(),
		Tuner:     w.eng.TunerState(),
	}
	s.Params = make([]ParamTensor, len(w.params))
	for i, p := range w.params {
		s.Params[i] = copyTensor(p.Name, p.Value)
	}
	if w.mem != nil {
		s.Memory = w.mem.State()
	}
	if w.syncPoint != nil {
		s.SyncPoint = make([]ParamTensor, len(w.syncPoint))
		for i, t := range w.syncPoint {
			s.SyncPoint[i] = copyTensor(w.params[i].Name, t)
		}
	}
	return s, nil
}

// applySnapshot validates the snapshot against the worker's configuration
// and restores every piece of state, returning the loop position to resume
// from.
func (w *worker) applySnapshot(s *Snapshot) (trainerPos, error) {
	var pos trainerPos
	if s.Seed != w.cfg.Seed {
		return pos, fmt.Errorf("grace: checkpoint is for seed %d, run uses %d", s.Seed, w.cfg.Seed)
	}
	// An elastic run may restore a snapshot taken at a different world size
	// (the shrink/grow rollback): per-rank state transfers unchanged, but the
	// loop position and policy state are world-size-shaped and are
	// re-derived — see the resize block at the end.
	elasticResize := w.cfg.Elastic != nil && s.Workers != w.cfg.Workers
	if s.Workers != w.cfg.Workers && !elasticResize {
		return pos, fmt.Errorf("grace: checkpoint is for %d workers, run has %d", s.Workers, w.cfg.Workers)
	}
	if s.Rank != w.rank {
		return pos, fmt.Errorf("grace: checkpoint belongs to rank %d, not rank %d", s.Rank, w.rank)
	}
	if s.Method != w.eng.Method() {
		return pos, fmt.Errorf("grace: checkpoint is for method %q, run uses %q", s.Method, w.eng.Method())
	}
	if s.Fusion != w.eng.Fusion() {
		return pos, fmt.Errorf("grace: checkpoint is for fusion policy %+v, run uses %+v", s.Fusion, w.eng.Fusion())
	}
	if len(s.Params) != len(w.params) {
		return pos, fmt.Errorf("grace: checkpoint has %d parameters, model has %d", len(s.Params), len(w.params))
	}
	for i, p := range w.params {
		pt := s.Params[i]
		if pt.Name != p.Name || len(pt.Data) != p.Value.Size() {
			return pos, fmt.Errorf("grace: checkpoint param %d is %s[%d], model wants %s[%d]",
				i, pt.Name, len(pt.Data), p.Name, p.Value.Size())
		}
		copy(p.Value.Data(), pt.Data)
	}
	sf, ok := w.opt.(optim.Stateful)
	if !ok {
		return pos, fmt.Errorf("grace: optimizer %q does not load state; checkpointing needs optim.Stateful", w.opt.Name())
	}
	if err := sf.LoadState(w.params, s.Opt); err != nil {
		return pos, err
	}
	if (w.mem != nil) != (s.Memory != nil) {
		return pos, fmt.Errorf("grace: checkpoint and run disagree on error-feedback memory (checkpoint %v, run %v)",
			s.Memory != nil, w.mem != nil)
	}
	if w.mem != nil {
		w.mem.LoadState(s.Memory)
	}
	if err := w.eng.LoadCodecState(s.Codec); err != nil {
		return pos, err
	}
	if elasticResize {
		// The policy signature pins the worker count, so a cross-world-size
		// tuner state is not loadable; presence must still match (a run cannot
		// switch tuning modes mid-flight). The policy was deterministically
		// reset by the resize (Engine.Rebind → WorldSizeSetter) on every
		// member, so trajectories stay rank-identical — they just restart.
		if (s.Tuner != nil) != (w.eng.TunerState() != nil) {
			return pos, errTunerPresence(s.Tuner != nil)
		}
	} else if err := w.eng.LoadTunerState(s.Tuner); err != nil {
		return pos, err
	}
	if (w.syncPoint != nil) != (s.SyncPoint != nil) {
		return pos, fmt.Errorf("grace: checkpoint and run disagree on local-SGD (checkpoint sync point %v, run %v)",
			s.SyncPoint != nil, w.syncPoint != nil)
	}
	if w.syncPoint != nil {
		if len(s.SyncPoint) != len(w.syncPoint) {
			return pos, fmt.Errorf("grace: checkpoint sync point has %d tensors, run has %d", len(s.SyncPoint), len(w.syncPoint))
		}
		for i, t := range w.syncPoint {
			if len(s.SyncPoint[i].Data) != t.Size() {
				return pos, fmt.Errorf("grace: checkpoint sync point %d has %d elements, run wants %d",
					i, len(s.SyncPoint[i].Data), t.Size())
			}
			copy(t.Data(), s.SyncPoint[i].Data)
		}
	}
	if elasticResize {
		// The snapshot's Iter counts batches of the OLD partition; under the
		// new world size the epoch's batch sequence is different, so the
		// interrupted epoch replays from its start under the new shard
		// assignment (the sampler is a pure function of (len, workers, rank,
		// seed) — every member derives the identical partition). Step keeps
		// the snapshot's count: it is the lockstep position, not a batch
		// index.
		return trainerPos{step: s.Step, epoch: s.Epoch, iter: 0, sinceSync: 0}, nil
	}
	return trainerPos{step: s.Step, epoch: s.Epoch, iter: s.Iter, sinceSync: s.SinceSync}, nil
}

// adoptSnapshot restores a snapshot that was captured by a *different* rank:
// the rejoin state-transfer path, where a rank whose local checkpoints were
// lost adopts a donor's snapshot broadcast over the collective. It is
// applySnapshot with the rank-identity check overridden — every other
// validation (seed, worker count, method, fusion, shapes) still applies.
//
// Adoption is bitwise-exact only when the run carries no per-rank divergent
// state: error-feedback memory off (or the residuals happen to be identical)
// and a codec whose state is rank-independent. Runs with rank-seeded codec
// RNG or EF memory will train on the donor's residual stream after adoption —
// still a valid model, but not the uninterrupted run bit for bit. The
// rejoining rank's own-checkpoint path (applySnapshot) has no such caveat.
func (w *worker) adoptSnapshot(s *Snapshot) (trainerPos, error) {
	donated := *s
	donated.Rank = w.rank
	return w.applySnapshot(&donated)
}

func copyTensor(name string, t *tensor.Dense) ParamTensor {
	return ParamTensor{
		Name:  name,
		Shape: append([]int(nil), t.Shape()...),
		Data:  append([]float32(nil), t.Data()...),
	}
}
