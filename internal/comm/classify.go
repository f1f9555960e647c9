package comm

import (
	"context"
	"errors"
	"io"
	"net"
	"syscall"
)

// Class partitions communication failures by what a caller can soundly do
// about them: retry the op, or escalate to recovery (ring reform + rejoin, or
// a supervisor restart). The taxonomy is deliberately conservative — anything
// unrecognized is fatal, because retrying a non-idempotent failure mode is
// worse than restarting from a checkpoint.
type Class int

const (
	// ClassFatal failures must not be retried at the op level: the peer is
	// gone, the protocol state is corrupt, or the failure is deterministic
	// (the retry would fail identically). Recovery means reforming the group
	// or restarting from a checkpoint.
	ClassFatal Class = iota
	// ClassTransient failures are worth retrying in place: timeouts, reset
	// connections, injected chaos drops — conditions that a later attempt
	// (after the group re-synchronizes) can succeed through.
	ClassTransient
)

// String names the class for logs and tables.
func (c Class) String() string {
	if c == ClassTransient {
		return "transient"
	}
	return "fatal"
}

// fatalSentinels are causes that make a failure unconditionally fatal, even
// when a transient indicator also appears in the chain (an abort whose cause
// is a dead peer is a dead peer, not a timeout).
var fatalSentinels = []error{
	ErrPeerDead,
	ErrFrameTooLarge,
	ErrCorrupt,
	ErrStaleGeneration,
	ErrRetriesExhausted,
	ErrEvicted,
}

// transientSentinels are causes a bounded retry is allowed to absorb.
var transientSentinels = []error{
	ErrInjected,              // chaos drops/resets are transient by design
	ErrAborted,               // group poison: cleared by a reform rendezvous
	context.DeadlineExceeded, // per-op deadline (comm.WithTimeout)
	io.EOF,                   // peer closed mid-frame
	io.ErrUnexpectedEOF,      // truncated frame
	net.ErrClosed,            // connection torn down under the op
	syscall.ECONNRESET,       // TCP RST
	syscall.ECONNREFUSED,     // peer not listening (yet)
	syscall.EPIPE,            // write to a closed connection
	syscall.ECONNABORTED,     // accept-queue teardown
}

// Classify maps a communication failure onto the retry taxonomy. Fatal
// sentinels dominate: an ErrAborted whose cause wraps ErrPeerDead classifies
// fatal even though a bare abort is transient. Timeouts reported through
// net.Error classify transient. nil is not a failure and classifies fatal
// (never retry a success path on a nil error).
func Classify(err error) Class {
	if err == nil {
		return ClassFatal
	}
	for _, s := range fatalSentinels {
		if errors.Is(err, s) {
			return ClassFatal
		}
	}
	for _, s := range transientSentinels {
		if errors.Is(err, s) {
			return ClassTransient
		}
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ClassTransient
	}
	return ClassFatal
}

// IsTransient reports whether a bounded in-place retry of the failed op is
// sound (see Classify).
func IsTransient(err error) bool { return Classify(err) == ClassTransient }
