package grace

import "fmt"

// This file defines the engine side of runtime compression autotuning: the
// Tuner contract a policy engine (internal/grace/autotune) implements, the
// per-step plan/observation exchange between the Engine and the policy, and
// the serializable policy state checkpoints carry.
//
// Determinism contract: every rank runs its own Tuner instance with no extra
// collective, so the policy MUST derive decisions purely from rank-identical
// inputs — the step counter, the tensor metadata, and the exchanged byte
// counts the Engine observes through collectives (an allreduce's dense width
// and an allgather's summed per-rank payload sizes are the same on every
// rank by construction). Locally measured wall-clock time is NOT
// rank-identical and must never influence a decision; it feeds telemetry
// only. As long as that holds, every rank computes the same assignment at
// the same step and the collective sequence stays in lockstep.

// TunerCandidate is one (method, options) configuration an autotuning policy
// may assign to a tensor. Candidates must keep no per-tensor codec state (a
// random stream is allowed and checkpointed) and must not use the Custom
// communication strategy; NewEngine enforces both.
type TunerCandidate struct {
	// Label names the candidate in reports and policy traces, e.g.
	// "topk@0.01".
	Label string
	// Method is the registry name passed to New.
	Method string
	// Opts configures the method instance.
	Opts Options
}

// TunerAssign is one tensor's exchange plan for the upcoming step.
type TunerAssign struct {
	// Cand indexes the tuner's Candidates().
	Cand int
	// Flush requests the EF-residual flush handoff for this step: the tensor
	// is exchanged exactly once uncompressed (compensated gradient, dense
	// allreduce) and its residual becomes exactly zero, so the new method
	// starts from clean accounting. Ignored when the engine runs without
	// error-feedback memory.
	Flush bool
}

// flushCodec is the EF flush handoff written as a codec: the identity over
// Allreduce, held by every tuning lane after the policy's candidates. Run
// through the ordinary exchange it sends the compensated gradient dense, its
// local decompression makes the residual ψ = comp − comp exactly zero — so
// the incoming method starts from clean error accounting — and the allreduce
// decode averages the sum like any other.
type flushCodec struct{}

func (flushCodec) Name() string       { return "flush" }
func (flushCodec) Strategy() Strategy { return Allreduce }
func (flushCodec) Compress(g []float32, _ TensorInfo) (*Payload, error) {
	return &Payload{Dense: g}, nil
}
func (flushCodec) Decompress(p *Payload, _ TensorInfo) ([]float32, error) {
	return append([]float32(nil), p.Dense...), nil
}
func (flushCodec) DecompressInto(p *Payload, _ TensorInfo, dst []float32) error {
	copy(dst, p.Dense)
	return nil
}

// TunerObs is the engine's post-step feedback for one tensor. All fields are
// rank-identical, so feeding them back into the policy preserves the
// determinism contract.
type TunerObs struct {
	// Cand and Flush echo the plan the observation belongs to.
	Cand  int
	Flush bool
	// Strategy is the communication strategy the exchange used.
	Strategy Strategy
	// ExchBytes is the exchanged-byte observation: the dense payload width
	// for an allreduce (every rank contributes the same width) and the sum of
	// every rank's payload sizes for an allgather (every rank sees every
	// payload). Flush steps report the uncompressed width.
	ExchBytes int64
	// Fault reports that this tensor's compressed payload failed decode on at
	// least one rank this step and was salvaged by the DecodeFallback recovery
	// round. It derives from the recovery round's union bitmask, so every rank
	// observes the identical value — safe to fold into policy decisions
	// without breaking the determinism contract. Always false when
	// DecodeFallback is off (a fault is then fatal, never observed).
	Fault bool
}

// TunerState is the serializable policy state. It is captured into
// Snapshot.Tuner at checkpoint boundaries and restored before the first
// post-resume step, so a killed and restarted run replays the identical
// policy trajectory bit for bit.
type TunerState struct {
	// Sig identifies the policy configuration (candidate set, period,
	// hysteresis, link model); restores reject a state from a different
	// configuration.
	Sig string
	// Step counts observed steps.
	Step int64
	// Switches counts method switches applied so far (cumulative).
	Switches int64
	// NextSwitches is the switch count the next Plan call reports — decisions
	// land between an Observe and the following Plan, so an un-reported count
	// must survive a checkpoint at that boundary.
	NextSwitches int32
	// Cands pins the candidate count LastBytes is strided by.
	Cands int32
	// Assign is the current per-tensor candidate assignment.
	Assign []int32
	// Pending marks tensors whose flush handoff has not run yet.
	Pending []bool
	// LastBytes[i*Cands+c] is the last ExchBytes observed for tensor i under
	// candidate c, or -1 when the pair has never been exchanged.
	LastBytes []int64
}

// Clone deep-copies the state (nil-safe).
func (s *TunerState) Clone() *TunerState {
	if s == nil {
		return nil
	}
	out := *s
	out.Assign = append([]int32(nil), s.Assign...)
	out.Pending = append([]bool(nil), s.Pending...)
	out.LastBytes = append([]int64(nil), s.LastBytes...)
	return &out
}

// Tuner is the per-tensor compression policy engine the Engine consults once
// per step. Implementations must be deterministic functions of their
// construction config plus the Init/Plan/Observe call sequence (see the
// determinism contract above); they are used by a single worker and need not
// be safe for concurrent use.
type Tuner interface {
	// Candidates returns the fixed candidate set; index positions are the
	// Cand values used everywhere else. Must not change after construction.
	Candidates() []TunerCandidate
	// Sig returns a deterministic signature of the policy configuration. The
	// engine reports it as Method() and checkpoints validate it on restore.
	Sig() string
	// Init binds the policy to a tensor set before the first planned step.
	// Re-binding to a matching tensor set (same count and sizes — the
	// checkpoint-resume path) must preserve existing policy state.
	Init(infos []TensorInfo) error
	// Plan fills dst (len = tensor count) with the step's assignment and
	// returns how many tensors switched methods at this step's start.
	Plan(dst []TunerAssign) int
	// Observe feeds back one completed step's per-tensor observations; the
	// policy advances its step counter and, at decision boundaries, computes
	// the next assignment.
	Observe(obs []TunerObs)
	// State returns a deep copy of the serializable policy state.
	State() *TunerState
	// LoadState restores a previously captured state; it validates the
	// signature and dimensions.
	LoadState(st *TunerState) error
}

// WorldSizeSetter is the optional Tuner extension an elastic run needs: a
// policy implementing it is told the new worker count after a committed
// membership change, so its link-model cluster and configuration signature
// re-derive from the new size. The call resets the policy trajectory (the
// signature pins the worker count, so pre-resize state is not loadable) —
// every member resets identically, keeping the lockstep contract. A tuning
// elastic run whose policy lacks this interface fails the resize.
type WorldSizeSetter interface {
	SetWorldSize(n int)
}

// TunerState reports a deep copy of the autotuning policy state, or nil when
// the engine runs a fixed method.
func (e *Engine) TunerState() *TunerState {
	if e.tuner == nil {
		return nil
	}
	return e.tuner.State()
}

// LoadTunerState restores a checkpointed policy state into the engine's
// tuner. Presence must match: a fixed-method engine rejects a state, and a
// tuning engine rejects its absence — resuming with a different tuning mode
// would desync the collective sequence across ranks.
func (e *Engine) LoadTunerState(st *TunerState) error {
	if e.tuner == nil {
		if st != nil {
			return errTunerPresence(true)
		}
		return nil
	}
	if st == nil {
		return errTunerPresence(false)
	}
	return e.tuner.LoadState(st)
}

func errTunerPresence(snapshotHas bool) error {
	if snapshotHas {
		return fmt.Errorf("grace: checkpoint carries autotune policy state but the run uses a fixed method")
	}
	return fmt.Errorf("grace: run autotunes but the checkpoint has no policy state")
}
