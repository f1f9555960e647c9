package comm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "synthetic timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

var _ net.Error = timeoutErr{}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassFatal},
		{"unknown", errors.New("novel failure"), ClassFatal},
		{"peer-dead", ErrPeerDead, ClassFatal},
		{"frame-too-large", ErrFrameTooLarge, ClassFatal},
		{"corrupt", ErrCorrupt, ClassFatal},
		{"stale-generation", ErrStaleGeneration, ClassFatal},
		{"retries-exhausted", ErrRetriesExhausted, ClassFatal},
		{"canceled", context.Canceled, ClassFatal},
		{"injected", ErrInjected, ClassTransient},
		{"aborted", ErrAborted, ClassTransient},
		{"deadline", context.DeadlineExceeded, ClassTransient},
		{"eof", io.EOF, ClassTransient},
		{"unexpected-eof", io.ErrUnexpectedEOF, ClassTransient},
		{"net-closed", net.ErrClosed, ClassTransient},
		{"econnreset", syscall.ECONNRESET, ClassTransient},
		{"econnrefused", syscall.ECONNREFUSED, ClassTransient},
		{"epipe", syscall.EPIPE, ClassTransient},
		{"econnaborted", syscall.ECONNABORTED, ClassTransient},
		{"net-timeout", timeoutErr{}, ClassTransient},
		// Wrapped in the typed Error and extra context, classification holds.
		{"wrapped-transient", wrapErr(1, OpAllreduce, 4, fmt.Errorf("x: %w", ErrInjected)), ClassTransient},
		{"wrapped-fatal", wrapErr(2, OpHeartbeat, 9, fmt.Errorf("x: %w", ErrPeerDead)), ClassFatal},
		// A peer death whose proximate symptom was a reset stays fatal: the
		// fatal sentinel dominates the transient one.
		{"peer-dead-over-reset", fmt.Errorf("%w (%w)", ErrPeerDead, syscall.ECONNRESET), ClassFatal},
		// An abort carrying an injected cause is still transient.
		{"aborted-injected", fmt.Errorf("%w: %w", ErrAborted, ErrInjected), ClassTransient},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
	if !IsTransient(ErrInjected) || IsTransient(ErrPeerDead) {
		t.Error("IsTransient disagrees with Classify")
	}
	if ClassFatal.String() != "fatal" || ClassTransient.String() != "transient" {
		t.Errorf("Class.String: %q / %q", ClassFatal, ClassTransient)
	}
}

// TestSentinelRoundTrips: every sentinel must survive errors.Is through the
// typed *Error wrapper, extra fmt wrapping, and the WithTimeout and Faulty
// layers, and *Error coordinates must stay reachable with errors.As.
func TestSentinelRoundTrips(t *testing.T) {
	sentinels := []error{
		ErrFrameTooLarge, ErrInjected, ErrAborted, ErrPeerDead,
		ErrCorrupt, ErrStaleGeneration, ErrRetriesExhausted,
	}
	for _, s := range sentinels {
		err := wrapErr(1, OpAllgather, 7, fmt.Errorf("context: %w", s))
		if !errors.Is(err, s) {
			t.Errorf("sentinel %v lost through wrapErr", s)
		}
		var ce *Error
		if !errors.As(err, &ce) || ce.Rank != 1 || ce.Op != OpAllgather || ce.Step != 7 {
			t.Errorf("coordinates lost for %v: %v", s, err)
		}
		// Double wrapping preserves the innermost coordinates.
		rewrapped := wrapErr(2, OpBarrier, 9, err)
		var inner *Error
		if !errors.As(rewrapped, &inner) || inner.Rank != 1 || inner.Step != 7 {
			t.Errorf("rewrap clobbered innermost coordinates for %v", s)
		}
	}

	// Through a live Faulty+WithTimeout stack on an aborted hub: the injected
	// drop must surface ErrInjected AND ErrAborted on the victim.
	hub := NewHub(2)
	victim := NewFaulty(WithTimeout(hub.Worker(0), time.Second), Plan{Faults: []Fault{
		{Kind: FaultDrop, Rank: 0, Op: OpBarrier, FromStep: 1},
	}})
	err := victim.Barrier()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("victim error %v should wrap ErrInjected", err)
	}
	peerErr := hub.Worker(1).Barrier()
	if !errors.Is(peerErr, ErrAborted) || !errors.Is(peerErr, ErrInjected) {
		t.Fatalf("peer error %v should wrap ErrAborted and the injected cause", peerErr)
	}
	if !IsTransient(err) || !IsTransient(peerErr) {
		t.Fatalf("injected drop should classify transient on both sides")
	}
}
