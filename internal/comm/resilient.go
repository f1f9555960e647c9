package comm

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/fxrand"
	"repro/internal/telemetry"
)

// Reformer is implemented by collectives that can rebuild their group under a
// new generation after a failure: the in-process Hub (clearing abort poison at
// an all-ranks rendezvous) and TCPRing (with heartbeats on). Reform is itself a
// synchronization point — every member of the group must call it, in the same
// position of its op sequence, before any member's call returns. It returns
// the generation the group reconvened under.
type Reformer interface {
	Reform() (uint64, error)
}

// AsReformer walks a wrapper chain down to the first layer that can reform
// the group, if any. A TCPRing without heartbeats cannot, and reports none.
func AsReformer(c Collective) (Reformer, bool) { return reformCapable(as[Reformer](c)) }

// groupAtomic marks a Reformer on which a failed op failed on every rank and
// completed on none (the hub's rendezvous). Only there can each rank's
// Resilient reform on its own initiative and trust that the whole group is
// doing the same.
type groupAtomic interface {
	Reformer
	opsFailTogether()
}

// maxAttemptsPerOp bounds one collective op: the original try plus two
// retries.
const maxAttemptsPerOp = 3

// RetryPolicy bounds the Resilient wrapper. The zero value picks the
// defaults noted on each field.
type RetryPolicy struct {
	// Budget is the total retries the handle may spend over its lifetime
	// (default 16). Exhausting it makes further transient failures fatal.
	Budget int
	// BaseBackoff is the delay before the first retry (default 5ms); each
	// subsequent retry doubles it, capped at MaxBackoff (default 250ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed drives the jitter stream (fxrand), so chaos runs back off in a
	// reproducible pattern. Mixed with the rank so ranks don't thunder in
	// phase.
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Budget <= 0 {
		p.Budget = 16
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	return p
}

// Resilient wraps a Collective with bounded in-place retry of transient
// failures (see Classify): per-op deadline expiries, reset connections, and
// injected chaos faults are reabsorbed with capped jittered backoff instead
// of escalating to the supervisor. Before each retry the wrapper reforms the
// group when op failures on the transport are group-atomic — on the hub that
// rendezvous clears the abort poison a drop/reset fault left behind, so every
// rank's retry of the same lockstep op can succeed together.
//
// Retrying an op in place is sound only where an op failure is group-atomic
// (no rank completed it), which holds for the rendezvous-based hub. Ring
// allreduce is not atomic — a failing rank's last frame can complete a peer's
// op — so ring deployments lean on the trainer-level rejoin path instead and
// use Resilient only to absorb pre-op dial/timeout flakes. Those are local to
// one rank: its peers are not reforming, so Resilient never reforms a TCPRing,
// heartbeats or not — it would sever a healthy incarnation and wait out
// SetupTimeout alone. A ring is reformed by the trainer's heal path, where
// every member arrives together.
//
// Retries never straddle a group-generation bump. If the group reforms
// between a failure and its retry (a rejoin heal, or an elastic shrink or
// grow committing a new membership), this handle's traffic is stamped with
// the old generation and the transport rejects it with ErrStaleGeneration —
// a fatal sentinel that dominates any transient indicator in the same chain
// (see Classify), so the failure surfaces immediately instead of being
// replayed into a group whose size, denominators, and op sequence have moved
// on. Crossing a generation is the trainer heal path's job: it re-syncs
// position and state before any further collective runs.
//
// Resilient preserves the handle contract: single-goroutine use, identical op
// sequences across ranks (retries happen inside the op, so the sequence the
// caller sees is unchanged).
type Resilient struct {
	middleware
	pol     RetryPolicy
	rng     *fxrand.RNG
	spent   int       // total retries consumed; single-goroutine per handle
	snap    []float32 // allreduce input snapshot, reused across ops
	retries atomic.Int64
	reforms atomic.Int64
}

var _ ContextCollective = (*Resilient)(nil)

// NewResilient wraps inner with the given retry policy.
func NewResilient(inner Collective, pol RetryPolicy) *Resilient {
	pol = pol.withDefaults()
	r := &Resilient{pol: pol, rng: fxrand.New(pol.Seed*0x9e3779b9 + uint64(inner.Rank()) + 1)}
	r.middleware = middleware{inner: inner, hook: r.retry}
	return r
}

// Retries reports the transient failures this handle has retried through.
func (r *Resilient) Retries() int64 { return r.retries.Load() }

// Reforms reports the group reforms this handle has driven before retries.
func (r *Resilient) Reforms() int64 { return r.reforms.Load() }

// retry is Resilient's intercept: it runs the op, absorbing transient
// failures within the policy's bounds. An allreduce input is snapshotted into
// a handle-owned buffer so each retry starts from the caller's original vector
// even on transports that reduce in place.
func (r *Resilient) retry(ctx context.Context, k *call) error {
	if k.op == OpAllreduce {
		r.snap = append(r.snap[:0], k.x...)
	}
	for attempt := 1; ; attempt++ {
		if attempt > 1 && k.op == OpAllreduce {
			copy(k.x, r.snap)
		}
		err := k.invoke(ctx, r.inner)
		if err == nil || !IsTransient(err) {
			return err
		}
		if attempt >= maxAttemptsPerOp {
			return fmt.Errorf("%w: %d attempts: %w", ErrRetriesExhausted, attempt, err)
		}
		if r.spent >= r.pol.Budget {
			return fmt.Errorf("%w: handle retry budget (%d) spent: %w", ErrRetriesExhausted, r.pol.Budget, err)
		}
		r.spent++
		r.retries.Add(1)
		telemetry.Default.Add(telemetry.CtrCommRetries, 1)
		telemetry.Default.RecordFault(r.Rank(), telemetry.OpRetry, int64(attempt), telemetry.FaultRetry, 0)
		if err := r.sleep(ctx, r.backoff(attempt)); err != nil {
			return err
		}
		// Reform before retrying so the whole group reconverges on the same
		// op: on the hub every rank failed this op (rendezvous atomicity) and
		// every rank's Resilient reforms here, completing the rendezvous.
		if rf, ok := as[groupAtomic](r.inner); ok {
			if _, err := rf.Reform(); err != nil {
				return err
			}
			r.reforms.Add(1)
		}
	}
}

// backoff computes the jittered, capped delay before retry #attempt: half
// deterministic ramp, half fxrand jitter, so ranks desynchronize
// reproducibly.
func (r *Resilient) backoff(attempt int) time.Duration {
	d := r.pol.BaseBackoff << (attempt - 1)
	if d > r.pol.MaxBackoff || d <= 0 {
		d = r.pol.MaxBackoff
	}
	return d/2 + time.Duration(r.rng.Int63()%int64(d/2+1))
}

func (r *Resilient) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
