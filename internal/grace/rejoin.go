package grace

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/telemetry"
)

// maxHeals bounds how many peer-death heals one worker attempts before giving
// up and surfacing the error: a group that keeps losing ranks is not going to
// be fixed by a fourth rollback.
const maxHeals = 3

// encodeStepList renders a checkpoint-step set as comma-joined decimal text —
// the sync round's allgather payload. Empty set encodes as "".
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

// commonStep is the one rule that chooses the rollback step. Given every
// rank's list of loadable checkpoint steps (indexed by current rank), step is
// the newest step present in every checkpointed rank's list (-1 when they
// share none), donor the lowest rank holding any checkpoint (-1 when nobody
// does), and stateless the number of ranks holding none.
func commonStep(lists [][]int64) (step int64, donor, stateless int) {
	step, donor = -1, -1
	inAll := make(map[int64]int)
	for rank, l := range lists {
		if len(l) == 0 {
			stateless++
			continue
		}
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
		if n == len(lists)-stateless && s > step {
			step = s
		}
	}
	return step, donor, stateless
}

// localSteps lists the checkpoint steps this rank offers to the sync round:
// what its store can load, above the join floor.
func (w *worker) localSteps() ([]int64, error) {
	steps, err := w.cfg.Checkpoint.Store.Steps(w.rank)
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

// syncRound is the one rollback path: every rank runs it after a group reform
// (heal) and, with Checkpoint.Resume, before its first step (start). The
// protocol is a fixed collective sequence, identical on every rank:
//
//  1. Allgather each rank's loadable steps and agree on S (commonStep).
//  2. Each checkpointed rank loads its OWN snapshot at S and applies it;
//     per-rank state (error-feedback residuals, rank-seeded codec RNG) lives
//     only in that rank's checkpoints, which is why rollback-to-own-snapshot
//     is the bitwise-exact path.
//  3. If any rank is stateless, the donor (lowest checkpointed rank)
//     broadcasts its encoded snapshot; stateless ranks adopt it with the rank
//     identity overridden (see adoptSnapshot for the exactness caveat).
//
// When no rank holds a checkpoint, a start-up round reports restored = false
// and the group starts fresh; a heal has nothing to roll back to and fails.
// Collective errors keep their sentinel chains intact for errors.Is, so
// callers can tell another peer death mid-round from local checkpoint
// problems.
func (w *worker) syncRound(start bool) (pos trainerPos, restored bool, err error) {
	st := w.cfg.Checkpoint.Store
	mine, err := w.localSteps()
	if err != nil {
		return pos, false, fmt.Errorf("grace: sync round: list local checkpoints: %w", err)
	}
	blobs, err := w.coll.AllgatherBytes(encodeStepList(mine))
	if err != nil {
		return pos, false, fmt.Errorf("grace: sync round step negotiation: %w", err)
	}
	lists := make([][]int64, len(blobs))
	for r, b := range blobs {
		if lists[r], err = decodeStepList(b); err != nil {
			return pos, false, fmt.Errorf("grace: sync round: rank %d sent a malformed step list: %w", r, err)
		}
	}
	step, donor, stateless := commonStep(lists)
	switch {
	case donor < 0 && start:
		return pos, false, nil
	case donor < 0:
		return pos, false, fmt.Errorf("grace: sync round: no rank holds a checkpoint; nothing to recover to")
	case step < 0:
		return pos, false, fmt.Errorf("grace: sync round: checkpointed ranks share no common step")
	}

	// Quiesce the engine while snapshot state is swapped underneath it.
	if err := w.eng.Pause(); err != nil {
		return pos, false, err
	}
	defer w.eng.Resume()

	var snap *Snapshot
	if len(mine) > 0 {
		if snap, err = st.Load(w.rank, step); err != nil {
			return pos, false, fmt.Errorf("grace: sync round: load own checkpoint at step %d: %w", step, err)
		}
		if pos, err = w.applySnapshot(snap); err != nil {
			return pos, false, fmt.Errorf("grace: sync round: apply own checkpoint at step %d: %w", step, err)
		}
	}
	if stateless > 0 {
		// Collective results are indexed by CURRENT rank — under elastic
		// membership that can differ from this worker's original identity
		// (w.rank), which checkpoint ownership is keyed by.
		var blob []byte
		if w.coll.Rank() == donor {
			blob = st.Encode(snap)
		}
		out, err := w.coll.BroadcastBytes(blob, donor)
		if err != nil {
			return pos, false, fmt.Errorf("grace: sync round state transfer: %w", err)
		}
		if len(mine) == 0 {
			s, err := st.Decode(out)
			if err != nil {
				return pos, false, fmt.Errorf("grace: sync round: decode donated snapshot: %w", err)
			}
			if pos, err = w.adoptSnapshot(s); err != nil {
				return pos, false, fmt.Errorf("grace: sync round: adopt donated snapshot: %w", err)
			}
			telemetry.Default.Add(telemetry.CtrRejoinTransferBytes, int64(len(out)))
		}
	}

	kind := int64(telemetry.FaultHeal)
	if start {
		kind = telemetry.FaultRestore
	}
	telemetry.Default.Add(telemetry.CtrCheckpointRestores, 1)
	telemetry.Default.RecordFault(w.rank, telemetry.OpStep, pos.step, kind, 0)
	return pos, true, nil
}

// restore is the start-up sync round, run when Checkpoint.Resume is set or
// the worker is an elastic joiner. On a substrate still poisoned by the death
// this rank is replacing (the in-process hub), the first attempt fails with
// the abort verdict while the survivors wait at the reform rendezvous; this
// rank's Reform is then the final arrival that heals the group, after which
// the round runs cleanly. A TCP replacement has already joined the new
// generation in DialTCPRingConfig, so its first attempt succeeds outright
// (and reports generation 0: it drove no reform), as does every rank of a
// restarted group.
func (w *worker) restore() error {
	ck, el := w.cfg.Checkpoint, w.cfg.Elastic
	joiner := el != nil && el.JoinOnStart
	if ck == nil || !(ck.Resume || joiner) {
		return nil
	}
	var gen uint64
	pos, restored, err := w.syncRound(true)
	if errors.Is(err, comm.ErrAborted) || errors.Is(err, comm.ErrPeerDead) {
		rf, ok := comm.AsReformer(w.coll)
		if !ok {
			return fmt.Errorf("grace: resume: group is poisoned and the collective cannot reform: %w", err)
		}
		if gen, err = rf.Reform(); err != nil {
			return fmt.Errorf("grace: resume: reform on start: %w", err)
		}
		pos, restored, err = w.syncRound(true)
	}
	if err != nil || !restored {
		return err
	}
	w.rewind(pos)
	w.baseEpoch = w.startEpoch
	if joiner {
		// The adopted step is the join floor: everything this rank's
		// checkpoint store holds at or below it predates the join and stays
		// invisible to future sync rounds. The joiner was absorbed under the
		// committed membership's generation.
		w.joinFloor = pos.step
		m := w.elastic.Membership()
		gen = m.Gen
		if el.OnResize != nil {
			el.OnResize(m, pos.step)
		}
	}
	if ck.OnHeal != nil {
		ck.OnHeal(gen, pos.step)
	}
	return nil
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
// then the sync round (every rank rolls back to the newest checkpoint step
// they all hold) and rewind, so the next runEpochs replays from the agreed
// step.
func (w *worker) heal(cause error) error {
	ck, el := w.cfg.Checkpoint, w.cfg.Elastic
	// A growSignal is not a failure — the join beacon observed pending
	// joiners and every member unwound at the identical step — so it neither
	// needs Heal's consent nor counts against the heal bound.
	var gs *growSignal
	grow := errors.As(cause, &gs)
	if !grow {
		if ck == nil || !ck.Heal || !errors.Is(cause, comm.ErrPeerDead) {
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
	pos, _, err := w.syncRound(false)
	if err != nil {
		return err
	}
	w.rewind(pos)
	if resized && el.OnResize != nil {
		el.OnResize(mship, pos.step)
	}
	if ck.OnHeal != nil {
		ck.OnHeal(mship.Gen, pos.step)
	}
	return nil
}
