package comm

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/fxrand"
	"repro/internal/telemetry"
)

// FaultKind enumerates the failure modes the Faulty wrapper can inject into
// a collective. They model what real transports (§V's TCP/RDMA clusters) do
// under stress: added latency, lost workers, corrupted payloads, reset
// connections, and receivers that stall the whole group.
type FaultKind int

const (
	// FaultDelay sleeps before entering the collective (network latency).
	FaultDelay FaultKind = iota
	// FaultDrop makes the worker fail the operation without entering it,
	// poisoning the group (a crashed or partitioned worker).
	FaultDrop
	// FaultCorrupt flips bits in the worker's outgoing payload (a corrupt
	// wire or buggy NIC); the collective itself succeeds.
	FaultCorrupt
	// FaultReset tears the underlying transport down mid-operation (a TCP
	// connection reset).
	FaultReset
	// FaultStall sleeps after the collective completes (a slow receiver
	// holding up the group's next round).
	FaultStall
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultDelay:
		return "delay"
	case FaultDrop:
		return "drop"
	case FaultCorrupt:
		return "corrupt"
	case FaultReset:
		return "reset"
	case FaultStall:
		return "stall"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault is one rule of a fault plan: inject Kind when the wrapped handle's
// rank, operation, and step counter match. Zero values mean "any": Rank -1 or
// matching, Op empty or matching, and a [FromStep, ToStep] window where
// ToStep 0 leaves the window open-ended. Prob in (0,1) makes the injection
// probabilistic under the plan's seeded RNG; 0 and 1 both mean "always".
type Fault struct {
	Kind     FaultKind
	Rank     int
	Op       Op
	FromStep int64
	ToStep   int64
	Prob     float64
	// Delay is the sleep for FaultDelay/FaultStall (default 1ms).
	Delay time.Duration
}

func (f Fault) matches(rank int, op Op, step int64) bool {
	if f.Rank >= 0 && f.Rank != rank {
		return false
	}
	if f.Op != "" && f.Op != op {
		return false
	}
	if step < f.FromStep {
		return false
	}
	if f.ToStep > 0 && step > f.ToStep {
		return false
	}
	return true
}

// Plan is a deterministic fault schedule: the same plan and seed produce the
// same injections, so chaos tests are reproducible. One plan can be shared by
// all ranks (each rule's Rank field scopes it).
type Plan struct {
	Seed   uint64
	Faults []Fault
}

// AnyRank is the Fault.Rank wildcard.
const AnyRank = -1

// FaultCounts reports how many faults of each kind a Faulty handle injected.
type FaultCounts struct {
	Delays, Drops, Corruptions, Resets, Stalls int64
}

// Total sums all injected faults.
func (c FaultCounts) Total() int64 {
	return c.Delays + c.Drops + c.Corruptions + c.Resets + c.Stalls
}

// Aborter is implemented by collectives that can poison their whole group so
// peers fail instead of waiting forever (InProc via Hub.Abort). Faulty uses
// it to make drop faults deadlock-free on in-process substrates.
type Aborter interface {
	Abort(cause error)
}

// Faulty wraps a Collective with deterministic fault injection driven by a
// Plan. With an empty plan it is a transparent passthrough: results are
// bitwise identical to the raw collective. Like every Collective handle it
// must be driven from a single goroutine; the injection counters may be read
// concurrently.
type Faulty struct {
	middleware
	plan   Plan
	rng    *fxrand.RNG
	step   atomic.Int64
	counts [5]atomic.Int64
}

var _ ContextCollective = (*Faulty)(nil)

// NewFaulty wraps inner with the given fault plan.
//
// Reforms reached through Unwrap bypass the fault plan: faults target
// collective ops, not recovery.
func NewFaulty(inner Collective, plan Plan) *Faulty {
	f := &Faulty{plan: plan, rng: fxrand.New(plan.Seed*2654435761 + 1)}
	f.middleware = middleware{inner: inner, hook: f.inject}
	return f
}

// Step reports how many collective operations this handle has performed.
func (f *Faulty) Step() int64 { return f.step.Load() }

// Counts reports the faults injected so far, by kind.
func (f *Faulty) Counts() FaultCounts {
	return FaultCounts{
		Delays:      f.counts[FaultDelay].Load(),
		Drops:       f.counts[FaultDrop].Load(),
		Corruptions: f.counts[FaultCorrupt].Load(),
		Resets:      f.counts[FaultReset].Load(),
		Stalls:      f.counts[FaultStall].Load(),
	}
}

// note records one injection in the handle's counters, mirrors it into the
// telemetry registry, and records it as an incident event at the op's step.
// The FaultKind order matches the CtrFaultDelays..CtrFaultStalls counter
// block and the telemetry.FaultDelay..FaultStall codes.
func (f *Faulty) note(kind FaultKind, op Op, step int64) {
	f.counts[kind].Add(1)
	telemetry.Default.Add(telemetry.CtrFaultDelays+telemetry.Counter(kind), 1)
	telemetry.Default.RecordFault(f.inner.Rank(), telemetry.OpCode(string(op)), step, telemetry.FaultDelay+int64(kind), 0)
}

// pick returns the first plan rule matching this operation, rolling the
// seeded RNG for probabilistic rules.
func (f *Faulty) pick(op Op, step int64) *Fault {
	for i := range f.plan.Faults {
		ft := &f.plan.Faults[i]
		if !ft.matches(f.inner.Rank(), op, step) {
			continue
		}
		if ft.Prob > 0 && ft.Prob < 1 && f.rng.Float64() >= ft.Prob {
			continue
		}
		return ft
	}
	return nil
}

func (ft *Fault) sleep() {
	d := ft.Delay
	if d <= 0 {
		d = time.Millisecond
	}
	time.Sleep(d)
}

// fail makes the wrapped group unusable the way the fault kind dictates and
// returns the typed injected error: drop prefers a clean group abort (so
// in-process peers error out instead of deadlocking) with transport close as
// fallback, reset prefers a hard transport close.
func (f *Faulty) fail(ft *Fault, op Op, step int64) error {
	cause := fmt.Errorf("%w: %s at rank %d %s step %d", ErrInjected, ft.Kind, f.inner.Rank(), op, step)
	ab, canAbort := as[Aborter](f.inner)
	cl, canClose := as[io.Closer](f.inner)
	switch {
	case ft.Kind == FaultReset && canClose:
		cl.Close()
	case ft.Kind == FaultReset && canAbort:
		ab.Abort(cause)
	case canAbort:
		ab.Abort(cause)
	case canClose:
		cl.Close()
	}
	return wrapErr(f.inner.Rank(), op, step, cause)
}

// corrupt returns a bit-flipped copy of b (b itself is never mutated — the
// caller's buffer may be reused by the application).
func (f *Faulty) corrupt(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	out := append([]byte(nil), b...)
	flips := 1 + len(out)/64
	for i := 0; i < flips; i++ {
		pos := int(f.rng.Uint64() % uint64(len(out)))
		out[pos] ^= byte(1 << (f.rng.Uint64() % 8))
	}
	return out
}

// corruptF32 flips the low mantissa bits of a few elements in place; used for
// allreduce inputs where the payload is a float vector. The slice passed in
// is already a private copy.
func (f *Faulty) corruptF32(x []float32) {
	if len(x) == 0 {
		return
	}
	flips := 1 + len(x)/64
	for i := 0; i < flips; i++ {
		pos := int(f.rng.Uint64() % uint64(len(x)))
		x[pos] *= -3
	}
}

// inject is Faulty's intercept: it counts the op, consults the plan, and
// applies the matching fault around (or instead of) the wrapped call. Injected
// delays and stalls burn real time, so a tight context deadline can expire
// across one. Corruption perturbs what this worker contributes — the allreduce
// vector in place (the sum still completes, wrongly), a bit-flipped copy of
// the allgather payload, the broadcast payload on the root only (it is what
// everyone receives), nothing for a barrier's empty token — and the collective
// itself succeeds.
func (f *Faulty) inject(ctx context.Context, k *call) error {
	step := f.step.Add(1)
	ft := f.pick(k.op, step)
	if ft == nil {
		return k.invoke(ctx, f.inner)
	}
	f.note(ft.Kind, k.op, step)
	switch ft.Kind {
	case FaultDelay:
		ft.sleep()
	case FaultStall:
		err := k.invoke(ctx, f.inner)
		ft.sleep()
		return err
	case FaultCorrupt:
		switch k.op {
		case OpAllreduce:
			f.corruptF32(k.x)
		case OpAllgather:
			k.b = f.corrupt(k.b)
		case OpBroadcast:
			if f.inner.Rank() == k.root {
				k.b = f.corrupt(k.b)
			}
		}
	default: // drop, reset
		return f.fail(ft, k.op, step)
	}
	return k.invoke(ctx, f.inner)
}
