package comm

import (
	"errors"
	"fmt"

	"repro/internal/telemetry"
)

// Op identifies the collective (or transport sub-) operation during which a
// communication failure occurred; it is carried by Error so callers can
// dispatch on what was being attempted, not just on the failure text.
type Op string

// Operation labels used in Error.Op.
const (
	OpDial      Op = "dial"
	OpAllreduce Op = "allreduce"
	OpAllgather Op = "allgather"
	OpBroadcast Op = "broadcast"
	OpBarrier   Op = "barrier"
	OpSend      Op = "send"
	OpRecv      Op = "recv"
	OpHeartbeat Op = "heartbeat"
	OpReform    Op = "reform"
)

// Sentinel causes recognizable with errors.Is across wrapping layers.
var (
	// ErrFrameTooLarge reports a length-prefixed frame whose header claims
	// more than the transport's configured MaxFrameBytes. The frame body is
	// never allocated or read; the connection must be considered corrupt.
	ErrFrameTooLarge = errors.New("comm: frame exceeds max frame bytes")

	// ErrInjected marks a failure manufactured by the Faulty wrapper; chaos
	// tests assert on it to separate injected faults from genuine bugs.
	ErrInjected = errors.New("comm: injected fault")

	// ErrAborted reports that the collective group was torn down (Hub.Abort
	// or a peer dropping out) while this worker was inside, or entering, a
	// round.
	ErrAborted = errors.New("comm: collective group aborted")

	// ErrPeerDead reports that the liveness layer declared a ring neighbor
	// dead: its heartbeat stream went silent past the configured deadline or
	// its connection reset. Unlike a per-op timeout (a stall — the peer may
	// merely be slow), ErrPeerDead means the process is gone and the group
	// must be reformed: either the self-healing rejoin path (grace.Config
	// Rejoin) or a supervisor restart-from-checkpoint.
	ErrPeerDead = errors.New("comm: peer dead")

	// ErrCorrupt reports a wire record that parsed but cannot be trusted: a
	// malformed generation handshake, an unrecognized preamble kind, or a
	// protocol frame whose contents contradict the transport's invariants.
	// Unlike a reset (the bytes never arrived), corruption means the peer —
	// or something between us — is speaking a different protocol, so the
	// connection is fatal, never retried.
	ErrCorrupt = errors.New("comm: corrupt protocol data")

	// ErrStaleGeneration reports traffic stamped with a group generation
	// older than this ring's: a leftover of a previous incarnation that was
	// reformed away. Stale traffic is rejected (never processed) so a
	// partitioned or zombie member can't split-brain the group.
	ErrStaleGeneration = errors.New("comm: stale group generation")

	// ErrRetriesExhausted reports that the Resilient wrapper gave up: the op
	// kept failing transiently past the per-op attempt cap or the handle's
	// total retry budget. It wraps the last transient failure.
	ErrRetriesExhausted = errors.New("comm: retries exhausted")

	// ErrEvicted reports that this rank was voted out of an elastic group: it
	// missed the rejoin deadline and the survivors committed a smaller world
	// size without it. Eviction is permanent for the handle — the group has
	// moved on, so no retry layer may resurrect it mid-op; a fresh worker
	// must present through the Joiner handshake instead.
	ErrEvicted = errors.New("comm: evicted from elastic group")
)

// Error is the typed failure every hardened Collective implementation wraps
// transport and protocol errors in: which rank observed it, during which
// operation, and at which step (the per-handle count of collective calls made
// so far, so lockstep groups can correlate failures across ranks).
type Error struct {
	Rank int
	Op   Op
	Step int64
	Err  error
}

// Error formats the failure with its rank/op/step coordinates.
func (e *Error) Error() string {
	return fmt.Sprintf("comm: rank %d %s (step %d): %v", e.Rank, e.Op, e.Step, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// wrapErr builds a typed Error unless err is nil or already typed (the
// innermost coordinates are the most precise ones, so they are preserved).
// Creating a typed Error is also the cross-rank plane's fault choke point:
// the innermost wrap records a fault event at the failing op's coordinates
// and arms a flight-recorder dump (rate-limited, so an abort storm across
// ranks yields one artifact).
func wrapErr(rank int, op Op, step int64, err error) error {
	if err == nil {
		return nil
	}
	var ce *Error
	if errors.As(err, &ce) {
		return err
	}
	e := &Error{Rank: rank, Op: op, Step: step, Err: err}
	code := int64(telemetry.FaultError)
	if errors.Is(err, ErrPeerDead) {
		code = telemetry.FaultPeerDead
	}
	telemetry.Default.RecordFault(rank, telemetry.OpCode(string(op)), step, code, 0)
	telemetry.Default.Flight("comm_"+string(op), e)
	return e
}
