package grace

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/optim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// RejoinConfig wires live single-rank rejoin into a training run: when a peer
// dies mid-run, survivors reform the collective group at the next generation
// and every rank rolls back to the newest checkpoint step they all hold, so
// the respawned rank can slot back in without restarting the healthy ranks.
//
// The snapshot persistence callbacks are injected (rather than importing
// internal/ckpt) so the checkpoint encoding stays a caller choice and the
// grace package keeps no disk dependency; cmd/graceworker and the harness
// wire them to a ckpt.Dir.
type RejoinConfig struct {
	// ListSteps reports the steps of every locally loadable checkpoint (any
	// order; empty means this rank has no local state — it will adopt a
	// donor's snapshot). Required.
	ListSteps func() ([]int64, error)
	// LoadLocal loads this rank's own snapshot at the given step. Required.
	LoadLocal func(step int64) (*Snapshot, error)
	// Encode/Decode serialize a snapshot for the donor state transfer. Only
	// exercised when some rank reports no local checkpoints; required then.
	Encode func(*Snapshot) ([]byte, error)
	Decode func([]byte) (*Snapshot, error)
	// SyncOnStart makes the worker run one heal sync round before its first
	// step instead of the Checkpoint.Resume path: the respawned rank joins
	// the survivors' recovery barrier, agrees on the common rollback step,
	// and loads (or adopts) its state there. The healthy ranks reach the same
	// round through their heal loop, so the collective op sequences align.
	SyncOnStart bool
	// MaxHeals bounds how many peer-death heals one worker attempts before
	// giving up and surfacing the error (default 3).
	MaxHeals int
	// OnHeal, when set, is called after each completed heal with the new
	// group generation and the step the group rolled back to.
	OnHeal func(gen uint64, step int64)
}

func (rj *RejoinConfig) maxHeals() int {
	if rj.MaxHeals > 0 {
		return rj.MaxHeals
	}
	return 3
}

func (rj *RejoinConfig) validate() error {
	if rj.ListSteps == nil || rj.LoadLocal == nil {
		return fmt.Errorf("grace: RejoinConfig needs ListSteps and LoadLocal")
	}
	return nil
}

// encodeStepList renders a checkpoint-step set as comma-joined decimal text —
// the heal sync round's allgather payload. Empty set encodes as "".
func encodeStepList(steps []int64) []byte {
	if len(steps) == 0 {
		return nil
	}
	var b strings.Builder
	for i, s := range steps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(s, 10))
	}
	return []byte(b.String())
}

// decodeStepList parses a peer's step list. Peers run the same code, but the
// bytes crossed a network: malformed input is an error, never a panic.
func decodeStepList(b []byte) ([]int64, error) {
	if len(b) == 0 {
		return nil, nil
	}
	parts := strings.Split(string(b), ",")
	steps := make([]int64, 0, len(parts))
	for _, p := range parts {
		s, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad step %q: %w", p, err)
		}
		if s < 0 {
			return nil, fmt.Errorf("negative step %d", s)
		}
		steps = append(steps, s)
	}
	return steps, nil
}

// commonStep picks the rollback point: the newest step present in every
// checkpointed (non-stateless) rank's list, and the donor — the lowest rank
// that holds checkpoints at all. Returns step -1 when the checkpointed ranks
// share no step, donor -1 when no rank holds any checkpoint.
func commonStep(lists [][]int64) (step int64, donor int) {
	step, donor = -1, -1
	var inAll map[int64]int
	holders := 0
	for rank, l := range lists {
		if len(l) == 0 {
			continue
		}
		holders++
		if donor < 0 {
			donor = rank
		}
		seen := make(map[int64]bool, len(l))
		for _, s := range l {
			if seen[s] {
				continue // duplicates must not double-count
			}
			seen[s] = true
			if inAll == nil {
				inAll = make(map[int64]int)
			}
			inAll[s]++
		}
	}
	for s, n := range inAll {
		if n == holders && s > step {
			step = s
		}
	}
	return step, donor
}

// healSync is the recovery sync round every rank runs after a group reform
// (and, for a respawned rank with SyncOnStart, before its first step). The
// protocol is a fixed collective sequence, identical on every rank:
//
//  1. Allgather each rank's local checkpoint-step list (comma-joined text).
//  2. Deterministically agree on S — the newest step every checkpointed rank
//     holds — and on whether any rank is stateless (no local checkpoints).
//  3. Each checkpointed rank loads its OWN snapshot at S and applies it;
//     per-rank state (error-feedback residuals, rank-seeded codec RNG) lives
//     only in that rank's checkpoints, which is why rollback-to-own-snapshot
//     is the bitwise-exact path.
//  4. If any rank is stateless, the donor (lowest checkpointed rank)
//     broadcasts its encoded snapshot; stateless ranks adopt it with the rank
//     identity overridden (see adoptSnapshot for the exactness caveat).
//
// It returns the loop position to resume from. Collective errors keep their
// sentinel chains intact for errors.Is, so callers can distinguish another
// peer death mid-heal from local checkpoint problems.
func healSync(cfg *Config, rank int, coll comm.Collective, model Model, opt optim.Optimizer,
	mem *Memory, eng *Engine, syncPoint []*tensor.Dense) (trainerPos, error) {
	var pos trainerPos
	rj := cfg.Rejoin
	mine, err := rj.ListSteps()
	if err != nil {
		return pos, fmt.Errorf("grace: rejoin: list local checkpoints: %w", err)
	}
	// Collective results are indexed by CURRENT rank — under elastic
	// membership that can differ from this worker's original identity (the
	// rank parameter), which checkpoint ownership is keyed by.
	cur := coll.Rank()
	lists, err := coll.AllgatherBytes(encodeStepList(mine))
	if err != nil {
		return pos, fmt.Errorf("grace: rejoin step negotiation: %w", err)
	}
	peer := make([][]int64, len(lists))
	anyStateless := false
	for r, b := range lists {
		l, perr := decodeStepList(b)
		if perr != nil {
			return pos, fmt.Errorf("grace: rejoin: rank %d sent a malformed step list: %w", r, perr)
		}
		peer[r] = l
		anyStateless = anyStateless || len(l) == 0
	}
	step, donor := commonStep(peer)
	if donor < 0 {
		return pos, fmt.Errorf("grace: rejoin: no rank holds a checkpoint; nothing to recover to")
	}
	if step < 0 {
		return pos, fmt.Errorf("grace: rejoin: checkpointed ranks share no common step")
	}

	// Quiesce the engine while snapshot state is swapped underneath it.
	if err := eng.Pause(); err != nil {
		return pos, err
	}
	defer eng.Resume()

	var snap *Snapshot
	if len(peer[cur]) > 0 {
		snap, err = rj.LoadLocal(step)
		if err != nil {
			return pos, fmt.Errorf("grace: rejoin: load own checkpoint at step %d: %w", step, err)
		}
		pos, err = applySnapshot(cfg, rank, snap, model, opt, mem, eng, syncPoint)
		if err != nil {
			return pos, fmt.Errorf("grace: rejoin: apply own checkpoint at step %d: %w", step, err)
		}
	}

	if anyStateless {
		if rj.Encode == nil || rj.Decode == nil {
			return pos, fmt.Errorf("grace: rejoin: a rank lost its checkpoints but RejoinConfig has no Encode/Decode for the donor transfer")
		}
		var blob []byte
		if cur == donor {
			if blob, err = rj.Encode(snap); err != nil {
				return pos, fmt.Errorf("grace: rejoin: encode donor snapshot: %w", err)
			}
		}
		out, err := coll.BroadcastBytes(blob, donor)
		if err != nil {
			return pos, fmt.Errorf("grace: rejoin state transfer: %w", err)
		}
		if len(peer[cur]) == 0 {
			s, derr := rj.Decode(out)
			if derr != nil {
				return pos, fmt.Errorf("grace: rejoin: decode donated snapshot: %w", derr)
			}
			pos, err = adoptSnapshot(cfg, rank, s, model, opt, mem, eng, syncPoint)
			if err != nil {
				return pos, fmt.Errorf("grace: rejoin: adopt donated snapshot: %w", err)
			}
			telemetry.Default.Add(telemetry.CtrRejoinTransferBytes, int64(len(out)))
		}
	}

	telemetry.Default.Add(telemetry.CtrCheckpointRestores, 1)
	telemetry.Default.Mark(fmt.Sprintf("heal:step%d", pos.step), rank)
	return pos, nil
}

// startupSync is the SyncOnStart entry: a respawned rank joins the group's
// heal round before its first step. On a substrate still poisoned by the
// death this rank is replacing (the in-process hub), the first sync attempt
// fails with the abort verdict while the survivors wait at the reform
// rendezvous; this rank's Reform is then the final arrival that heals the
// group, after which the sync round runs cleanly. A TCP replacement has
// already joined the new generation in DialTCPRingConfig, so its first attempt
// succeeds outright.
func startupSync(cfg *Config, rank int, coll comm.Collective, model Model, opt optim.Optimizer,
	mem *Memory, eng *Engine, syncPoint []*tensor.Dense) (trainerPos, uint64, error) {
	pos, err := healSync(cfg, rank, coll, model, opt, mem, eng, syncPoint)
	if err == nil {
		return pos, 0, nil
	}
	if !errors.Is(err, comm.ErrAborted) && !errors.Is(err, comm.ErrPeerDead) {
		return pos, 0, err
	}
	rf, ok := comm.AsReformer(coll)
	if !ok {
		return pos, 0, fmt.Errorf("grace: rejoin: group is poisoned and the collective cannot reform: %w", err)
	}
	gen, rerr := rf.Reform()
	if rerr != nil {
		return pos, 0, fmt.Errorf("grace: rejoin: reform on start: %w", rerr)
	}
	pos, err = healSync(cfg, rank, coll, model, opt, mem, eng, syncPoint)
	return pos, gen, err
}
