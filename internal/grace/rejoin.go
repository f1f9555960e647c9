package grace

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/telemetry"
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
	// OnHeal, when set, is called after each completed heal with the new
	// group generation and the step the group rolled back to.
	OnHeal func(gen uint64, step int64)
}

// maxHeals bounds how many peer-death heals one worker attempts before giving
// up and surfacing the error: a group that keeps losing ranks is not going to
// be fixed by a fourth rollback.
const maxHeals = 3

func (rj *RejoinConfig) validate() error {
	if rj.ListSteps == nil || rj.LoadLocal == nil {
		return fmt.Errorf("grace: RejoinConfig needs ListSteps and LoadLocal")
	}
	return nil
}

// encodeStepList renders a checkpoint-step set as comma-joined decimal text —
// the heal sync round's allgather payload. Empty set encodes as "".
func encodeStepList(steps []int64) []byte {
	var b []byte
	for i, s := range steps {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, s, 10)
	}
	return b
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
	inAll := make(map[int64]int)
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

// NegotiateCommonStep is the one-round checkpoint-step agreement every
// recovery path shares. Each rank allgathers the steps of its loadable local
// checkpoints (any order; empty means it holds none) as comma-joined decimal
// text, validates every peer's list — the bytes crossed a network — and
// derives the same verdict from the same lists: step is the newest step in
// every checkpointed rank's list (-1 when they share none), donor the lowest
// current rank holding any checkpoint (-1 when nobody does), stateless the
// number of ranks holding none. The heal sync round serves those a donor
// snapshot; a whole-group restart (graceworker -resume) has no donor path and
// treats any stateless rank as "no common step". Collective errors come back
// unwrapped, sentinel chains intact.
func NegotiateCommonStep(coll comm.Collective, mine []int64) (step int64, donor, stateless int, err error) {
	lists, err := coll.AllgatherBytes(encodeStepList(mine))
	if err != nil {
		return -1, -1, 0, err
	}
	peer := make([][]int64, len(lists))
	for r, b := range lists {
		if peer[r], err = decodeStepList(b); err != nil {
			return -1, -1, 0, fmt.Errorf("rank %d sent a malformed step list: %w", r, err)
		}
		if len(peer[r]) == 0 {
			stateless++
		}
	}
	step, donor = commonStep(peer)
	return step, donor, stateless, nil
}

// localSteps lists the checkpoint steps this rank offers to a heal
// negotiation: what its store holds, above the join floor.
func (w *worker) localSteps() ([]int64, error) {
	steps, err := w.cfg.Rejoin.ListSteps()
	if err != nil {
		return nil, err
	}
	kept := steps[:0]
	for _, s := range steps {
		if s > w.joinFloor {
			kept = append(kept, s)
		}
	}
	return kept, nil
}

// healSync is the recovery sync round every rank runs after a group reform
// (and, for a respawned rank with SyncOnStart, before its first step). The
// protocol is a fixed collective sequence, identical on every rank:
//
//  1. Agree on S — the newest step every checkpointed rank holds — and on
//     whether any rank is stateless (NegotiateCommonStep).
//  2. Each checkpointed rank loads its OWN snapshot at S and applies it;
//     per-rank state (error-feedback residuals, rank-seeded codec RNG) lives
//     only in that rank's checkpoints, which is why rollback-to-own-snapshot
//     is the bitwise-exact path.
//  3. If any rank is stateless, the donor (lowest checkpointed rank)
//     broadcasts its encoded snapshot; stateless ranks adopt it with the rank
//     identity overridden (see adoptSnapshot for the exactness caveat).
//
// It returns the loop position to resume from. Collective errors keep their
// sentinel chains intact for errors.Is, so callers can distinguish another
// peer death mid-heal from local checkpoint problems.
func (w *worker) healSync() (trainerPos, error) {
	var pos trainerPos
	rj := w.cfg.Rejoin
	mine, err := w.localSteps()
	if err != nil {
		return pos, fmt.Errorf("grace: rejoin: list local checkpoints: %w", err)
	}
	step, donor, stateless, err := NegotiateCommonStep(w.coll, mine)
	if err != nil {
		return pos, fmt.Errorf("grace: rejoin step negotiation: %w", err)
	}
	if donor < 0 {
		return pos, fmt.Errorf("grace: rejoin: no rank holds a checkpoint; nothing to recover to")
	}
	if step < 0 {
		return pos, fmt.Errorf("grace: rejoin: checkpointed ranks share no common step")
	}

	// Quiesce the engine while snapshot state is swapped underneath it.
	if err := w.eng.Pause(); err != nil {
		return pos, err
	}
	defer w.eng.Resume()

	var snap *Snapshot
	if len(mine) > 0 {
		snap, err = rj.LoadLocal(step)
		if err != nil {
			return pos, fmt.Errorf("grace: rejoin: load own checkpoint at step %d: %w", step, err)
		}
		pos, err = w.applySnapshot(snap)
		if err != nil {
			return pos, fmt.Errorf("grace: rejoin: apply own checkpoint at step %d: %w", step, err)
		}
	}

	if stateless > 0 {
		if rj.Encode == nil || rj.Decode == nil {
			return pos, fmt.Errorf("grace: rejoin: a rank lost its checkpoints but RejoinConfig has no Encode/Decode for the donor transfer")
		}
		// Collective results are indexed by CURRENT rank — under elastic
		// membership that can differ from this worker's original identity
		// (w.rank), which checkpoint ownership is keyed by.
		var blob []byte
		if w.coll.Rank() == donor {
			if blob, err = rj.Encode(snap); err != nil {
				return pos, fmt.Errorf("grace: rejoin: encode donor snapshot: %w", err)
			}
		}
		out, err := w.coll.BroadcastBytes(blob, donor)
		if err != nil {
			return pos, fmt.Errorf("grace: rejoin state transfer: %w", err)
		}
		if len(mine) == 0 {
			s, derr := rj.Decode(out)
			if derr != nil {
				return pos, fmt.Errorf("grace: rejoin: decode donated snapshot: %w", derr)
			}
			pos, err = w.adoptSnapshot(s)
			if err != nil {
				return pos, fmt.Errorf("grace: rejoin: adopt donated snapshot: %w", err)
			}
			telemetry.Default.Add(telemetry.CtrRejoinTransferBytes, int64(len(out)))
		}
	}

	telemetry.Default.Add(telemetry.CtrCheckpointRestores, 1)
	telemetry.Default.RecordFault(w.rank, telemetry.OpStep, pos.step, telemetry.FaultHeal, 0)
	return pos, nil
}

// heal is the training loop's one recovery path. cause is what unwound
// runEpochs; heal classifies it, makes the one reform call the cause and the
// collective's capabilities dictate, and runs the shared tail:
//
//	growSignal   ReformGrow(agreed members)     resize              OnResize, OnHeal
//	ErrPeerDead  ReformElastic(RejoinDeadline)  resize iff ranks    [OnResize,] OnHeal
//	             (elastic collective)           were lost
//	ErrPeerDead  Reform()                       —                   OnHeal
//	other        — (fatal: returned as is)
//
// then healSync (every rank rolls back to the newest checkpoint step they all
// hold) and rewind, so the next runEpochs replays from the agreed step.
func (w *worker) heal(cause error) error {
	rj, el := w.cfg.Rejoin, w.cfg.Elastic
	// A growSignal is not a failure — the join beacon observed pending
	// joiners and every member unwound at the identical step — so it neither
	// needs Rejoin's consent nor counts against the heal bound.
	var gs *growSignal
	grow := errors.As(cause, &gs)
	if !grow {
		if rj == nil || !errors.Is(cause, comm.ErrPeerDead) {
			return cause
		}
		if w.heals++; w.heals > maxHeals {
			return fmt.Errorf("grace: giving up after %d heals: %w", maxHeals, cause)
		}
		// Freeze the event window before the reform rewrites the group: the
		// dump captures the conviction and the ops leading up to it. The
		// recorder rate-limits, so a whole group healing at once still yields
		// a bounded artifact set.
		telemetry.Default.Flight("heal_peer_dead", cause)
	}

	var mship comm.Membership
	var err error
	resized := false
	switch {
	case grow:
		if mship, err = w.elastic.ReformGrow(gs.members); err != nil {
			return fmt.Errorf("grace: elastic grow: %w", err)
		}
		resized = true
	case w.elastic != nil:
		// Hold the door open for the rejoin deadline, then vote to continue
		// without whoever is still missing. An intact reform (everyone made
		// it back) commits no membership change and needs no resize.
		if mship, err = w.elastic.ReformElastic(el.rejoinDeadline()); err != nil {
			return fmt.Errorf("grace: elastic reform after peer death: %w", err)
		}
		resized = len(mship.Lost) > 0
	default:
		rf, ok := comm.AsReformer(w.coll)
		if !ok {
			return fmt.Errorf("grace: peer died and the collective cannot reform: %w", cause)
		}
		if mship.Gen, err = rf.Reform(); err != nil {
			return fmt.Errorf("grace: reform after peer death: %w", err)
		}
	}

	if resized {
		if err := w.resize(mship); err != nil {
			return err
		}
	}
	pos, err := w.healSync()
	if err != nil {
		return err
	}
	w.rewind(pos)
	if resized && el.OnResize != nil {
		el.OnResize(mship, pos.step)
	}
	if rj.OnHeal != nil {
		rj.OnHeal(mship.Gen, pos.step)
	}
	return nil
}

// startupSync is the SyncOnStart entry: a respawned rank joins the group's
// heal round before its first step, in place of the Resume fast-forward. On a
// substrate still poisoned by the death this rank is replacing (the
// in-process hub), the first sync attempt fails with the abort verdict while
// the survivors wait at the reform rendezvous; this rank's Reform is then the
// final arrival that heals the group, after which the sync round runs
// cleanly. A TCP replacement has already joined the new generation in
// DialTCPRingConfig, so its first attempt succeeds outright (and reports
// generation 0: it drove no reform).
func (w *worker) startupSync() error {
	rj, el := w.cfg.Rejoin, w.cfg.Elastic
	var gen uint64
	pos, err := w.healSync()
	if errors.Is(err, comm.ErrAborted) || errors.Is(err, comm.ErrPeerDead) {
		rf, ok := comm.AsReformer(w.coll)
		if !ok {
			return fmt.Errorf("grace: rejoin: group is poisoned and the collective cannot reform: %w", err)
		}
		if gen, err = rf.Reform(); err != nil {
			return fmt.Errorf("grace: rejoin: reform on start: %w", err)
		}
		pos, err = w.healSync()
	}
	if err != nil {
		return err
	}
	w.rewind(pos)
	w.baseEpoch = w.startEpoch
	if el != nil && el.JoinOnStart {
		// The adopted step is the join floor: everything this rank's
		// checkpoint store holds at or below it predates the join and stays
		// invisible to future heal negotiations. The joiner was absorbed
		// under the committed membership's generation.
		w.joinFloor = pos.step
		m := w.elastic.Membership()
		gen = m.Gen
		if el.OnResize != nil {
			el.OnResize(m, pos.step)
		}
	}
	if rj.OnHeal != nil {
		rj.OnHeal(gen, pos.step)
	}
	return nil
}
