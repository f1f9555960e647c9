package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// flakyColl fails each op transiently failN times before letting it through
// to a Serial-like success, mutating allreduce inputs on failed attempts the
// way a half-finished ring pass would.
type flakyColl struct {
	failN int
	calls int
	fatal error // returned instead of the transient failure when set
}

func (f *flakyColl) Rank() int { return 0 }
func (f *flakyColl) Size() int { return 1 }

func (f *flakyColl) fail() error {
	f.calls++
	if f.calls <= f.failN {
		if f.fatal != nil {
			return f.fatal
		}
		return fmt.Errorf("attempt %d: %w", f.calls, ErrInjected)
	}
	return nil
}

func (f *flakyColl) AllreduceF32(x []float32) error {
	for i := range x {
		x[i] *= 7 // scribble: a retry must restore the caller's input
	}
	if err := f.fail(); err != nil {
		return err
	}
	for i := range x {
		x[i] /= 7
	}
	return nil
}

func (f *flakyColl) AllgatherBytes(b []byte) ([][]byte, error) {
	if err := f.fail(); err != nil {
		return nil, err
	}
	return [][]byte{b}, nil
}

func (f *flakyColl) BroadcastBytes(b []byte, root int) ([]byte, error) {
	if err := f.fail(); err != nil {
		return nil, err
	}
	return b, nil
}

func (f *flakyColl) Barrier() error { return f.fail() }

func fastPolicy() RetryPolicy {
	return RetryPolicy{Budget: 16, BaseBackoff: time.Microsecond, MaxBackoff: 4 * time.Microsecond}
}

func TestResilientAbsorbsTransientFailures(t *testing.T) {
	inner := &flakyColl{failN: 2}
	r := NewResilient(inner, fastPolicy())
	x := []float32{1, 2, 3}
	if err := r.AllreduceF32(x); err != nil {
		t.Fatalf("allreduce: %v", err)
	}
	if x[0] != 1 || x[1] != 2 || x[2] != 3 {
		t.Fatalf("retries corrupted the input restore: %v", x)
	}
	if r.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", r.Retries())
	}
	// The snapshot buffer is reused across ops: a shorter vector next must
	// restore exactly its own length.
	inner.calls = 1
	if y := []float32{4, 5}; r.AllreduceF32(y) != nil || y[0] != 4 || y[1] != 5 {
		t.Fatalf("retry on a reused snapshot corrupted the input restore: %v", y)
	}

	inner = &flakyColl{failN: 1}
	r = NewResilient(inner, fastPolicy())
	all, err := r.AllgatherBytes([]byte{9})
	if err != nil || len(all) != 1 || all[0][0] != 9 {
		t.Fatalf("allgather after retry: %v %v", all, err)
	}
	inner = &flakyColl{failN: 1}
	r = NewResilient(inner, fastPolicy())
	out, err := r.BroadcastBytes([]byte{5}, 0)
	if err != nil || out[0] != 5 {
		t.Fatalf("broadcast after retry: %v %v", out, err)
	}
	inner = &flakyColl{failN: 2}
	r = NewResilient(inner, fastPolicy())
	if err := r.Barrier(); err != nil {
		t.Fatalf("barrier after retries: %v", err)
	}
}

func TestResilientPerOpExhaustion(t *testing.T) {
	r := NewResilient(&flakyColl{failN: 100}, fastPolicy())
	err := r.Barrier()
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrRetriesExhausted wrapping the last transient cause", err)
	}
	if IsTransient(err) {
		t.Fatal("an exhausted op must classify fatal, or callers would retry the retrier")
	}
}

func TestResilientBudgetExhaustion(t *testing.T) {
	pol := fastPolicy()
	pol.Budget = 3
	inner := &flakyColl{failN: 1 << 30}
	r := NewResilient(inner, pol)
	var err error
	for i := 0; i < 4; i++ {
		err = r.Barrier()
	}
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted once the handle budget is spent", err)
	}
	// With the budget spent, a transient failure costs exactly one attempt.
	before := inner.calls
	r.Barrier()
	if inner.calls != before+1 {
		t.Fatalf("spent budget still retried: %d extra attempts", inner.calls-before-1)
	}
}

func TestResilientFatalPassThrough(t *testing.T) {
	inner := &flakyColl{failN: 100, fatal: fmt.Errorf("neighbor: %w", ErrPeerDead)}
	r := NewResilient(inner, fastPolicy())
	err := r.Barrier()
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("err = %v, want the fatal cause untouched", err)
	}
	if inner.calls != 1 {
		t.Fatalf("fatal failure was attempted %d times, want 1", inner.calls)
	}
}

func TestResilientBackoffDeterministic(t *testing.T) {
	mk := func() []time.Duration {
		r := NewResilient(&flakyColl{}, RetryPolicy{Seed: 42, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond})
		var out []time.Duration
		for a := 1; a <= 6; a++ {
			out = append(out, r.backoff(a))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff stream not reproducible at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] <= 0 || a[i] > 8*time.Millisecond {
			t.Fatalf("backoff %v out of bounds", a[i])
		}
	}
}

func TestResilientContextCancelStopsRetry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewResilient(&flakyColl{failN: 100}, RetryPolicy{BaseBackoff: time.Hour, MaxBackoff: time.Hour})
	err := r.BarrierCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled out of the backoff sleep", err)
	}
}

// TestResilientHubChaosCompletes is the comm-level acceptance check: a
// transient-only fault plan (drops and resets in bounded windows) over the
// hub completes with zero outside intervention, because every rank's
// Resilient reforms the aborted group and retries the same lockstep op.
func TestResilientHubChaosCompletes(t *testing.T) {
	const n, steps = 3, 8
	hub := NewHub(n)
	hub.SetReformTimeout(10 * time.Second)
	plan := Plan{Seed: 7, Faults: []Fault{
		// Bounded windows: the Faulty step counter advances per attempt, so
		// an open-ended rule would re-fire on every retry forever. Allgathers
		// sit on even per-rank steps until a retry shifts the parity, hence
		// the two-step window on the second rule.
		{Kind: FaultDrop, Rank: 1, Op: OpAllgather, FromStep: 4, ToStep: 4},
		{Kind: FaultDrop, Rank: 2, Op: OpAllgather, FromStep: 9, ToStep: 10},
	}}
	errs := make([]error, n)
	sums := make([][]float32, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w := NewResilient(NewFaulty(hub.Worker(rank), plan), RetryPolicy{
				Seed: 11, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
			})
			for s := 0; s < steps; s++ {
				x := []float32{float32(rank), 1}
				if err := w.AllreduceF32(x); err != nil {
					errs[rank] = fmt.Errorf("step %d allreduce: %w", s, err)
					return
				}
				if _, err := w.AllgatherBytes([]byte{byte(rank), byte(s)}); err != nil {
					errs[rank] = fmt.Errorf("step %d allgather: %w", s, err)
					return
				}
				sums[rank] = x
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for rank, x := range sums {
		if x[0] != 3 || x[1] != 3 { // 0+1+2 and 1+1+1
			t.Fatalf("rank %d: wrong allreduce result %v after healed chaos", rank, x)
		}
	}
	if hub.Generation() == 0 {
		t.Fatal("chaos plan with drops should have forced at least one reform")
	}
}

// TestResilientOverTCPRingRetriesWithoutReform drives graceworker's wrapper
// stack (ring → -chaos → -optimeout → -retry-budget) into a pre-op flake: an
// injected delay outlasts the op deadline on rank 0 only, the ring refuses the
// expired context before anything reaches the wire, and Resilient must simply
// try again. Its peer is healthy and waiting in the same op, so a reform —
// which a heartbeat ring can do and a heartbeat-less one cannot — would be
// wrong either way: the retry has to land on the incarnation the ring was
// dialled with.
func TestResilientOverTCPRingRetriesWithoutReform(t *testing.T) {
	for name, dial := range map[string]func(*testing.T) []*TCPRing{
		"no-heartbeat": func(t *testing.T) []*TCPRing {
			r0, r1 := dialRingPair(t, -1)
			return []*TCPRing{r0, r1}
		},
		"heartbeat": func(t *testing.T) []*TCPRing {
			return dialHBRing(t, 2, 50*time.Millisecond, 5*time.Second)
		},
	} {
		t.Run(name, func(t *testing.T) {
			rings := dial(t)
			plan := Plan{Faults: []Fault{{Kind: FaultDelay, Rank: 0, FromStep: 1, ToStep: 1, Delay: 300 * time.Millisecond}}}
			rs := NewResilient(WithTimeout(NewFaulty(rings[0], plan), 100*time.Millisecond), fastPolicy())
			peer := make(chan error, 1)
			y := []float32{2, 20}
			go func() { peer <- rings[1].AllreduceF32(y) }()
			x := []float32{1, 10}
			if err := rs.AllreduceF32(x); err != nil {
				t.Fatalf("rank 0: %v, want the expired first attempt absorbed", err)
			}
			if err := <-peer; err != nil {
				t.Fatalf("rank 1: %v", err)
			}
			if x[0] != 3 || x[1] != 30 || y[0] != 3 || y[1] != 30 {
				t.Fatalf("allreduce after the retry: rank 0 %v, rank 1 %v, want [3 30]", x, y)
			}
			if rs.Retries() != 1 || rs.Reforms() != 0 {
				t.Fatalf("%d retries / %d reforms, want 1 / 0", rs.Retries(), rs.Reforms())
			}
			if gen := rings[0].Membership().Gen; gen != 0 {
				t.Fatalf("ring moved to generation %d under Resilient", gen)
			}
		})
	}
}

// TestResilientStaleGenerationIsPermanent pins the Resilient × elastic-reform
// contract: a retry must never straddle a group-generation bump. When the
// group reforms (a rejoin heal or an elastic shrink/grow) between a failure
// and its retry, the stale rank's traffic is stamped with the old generation
// and rejected with ErrStaleGeneration — that rejection must classify fatal
// and surface on the FIRST attempt, with no in-place retry and no reform
// driven by the wrapper. Replaying a pre-reform op into the post-reform group
// would corrupt the lockstep op sequence; recovery belongs to the trainer's
// heal path, which re-syncs state before continuing.
func TestResilientStaleGenerationIsPermanent(t *testing.T) {
	stale := fmt.Errorf("ring: neighbor at generation 3, local 4: %w", ErrStaleGeneration)
	inner := &flakyColl{failN: 100, fatal: stale}
	r := NewResilient(inner, fastPolicy())
	err := r.AllreduceF32([]float32{1, 2})
	if !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("err = %v, want ErrStaleGeneration through the wrapper", err)
	}
	if inner.calls != 1 {
		t.Fatalf("inner op attempted %d times, want exactly 1 (no retry across a generation bump)", inner.calls)
	}
	if r.Retries() != 0 || r.Reforms() != 0 {
		t.Fatalf("wrapper spent %d retries / %d reforms on a stale-generation failure, want none",
			r.Retries(), r.Reforms())
	}

	// Fatal sentinels dominate mixed chains: a stale-generation rejection that
	// ALSO carries a transient indicator (an abort poison, a reset) must still
	// classify fatal — otherwise a retry could sneak the op across the bump.
	mixed := fmt.Errorf("%w: delivered as %w", ErrStaleGeneration, ErrAborted)
	if IsTransient(mixed) {
		t.Fatal("stale generation wrapped in a transient abort classified transient; fatal must dominate")
	}
	inner = &flakyColl{failN: 100, fatal: mixed}
	r = NewResilient(inner, fastPolicy())
	if err := r.Barrier(); !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("barrier err = %v, want ErrStaleGeneration", err)
	}
	if inner.calls != 1 || r.Retries() != 0 {
		t.Fatalf("mixed stale/transient chain retried (%d calls, %d retries), want a single surfaced attempt",
			inner.calls, r.Retries())
	}
}
