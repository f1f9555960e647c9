package comm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// withDeadline fails the test if fn does not return within d — the chaos
// suite's guarantee that injected faults produce errors, not hangs.
func withDeadline(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("deadlocked: operation did not complete within deadline")
	}
}

// TestFaultyDropYieldsTypedErrorsEverywhere injects a drop at one rank and
// requires every rank — the victim and its blocked peers — to come back with
// a typed *Error inside the deadline.
func TestFaultyDropYieldsTypedErrorsEverywhere(t *testing.T) {
	const n = 4
	hub := NewHub(n)
	errs := make([]error, n)
	withDeadline(t, 5*time.Second, func() {
		var wg sync.WaitGroup
		for rank := 0; rank < n; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				w := NewFaulty(hub.Worker(rank), Plan{Faults: []Fault{
					{Kind: FaultDrop, Rank: 2, Op: OpAllreduce, FromStep: 3, ToStep: 3},
				}})
				for k := 0; k < 10; k++ {
					x := make([]float32, 8)
					if err := w.AllreduceF32(x); err != nil {
						errs[rank] = err
						return
					}
				}
			}(rank)
		}
		wg.Wait()
	})
	for rank, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: no error despite injected drop", rank)
		}
		var ce *Error
		if !errors.As(err, &ce) {
			t.Fatalf("rank %d: error %v is not a typed *comm.Error", rank, err)
		}
		if ce.Op != OpAllreduce {
			t.Fatalf("rank %d: op = %s, want allreduce", rank, ce.Op)
		}
	}
	// The victim saw the injected sentinel; peers saw the group abort.
	if !errors.Is(errs[2], ErrInjected) {
		t.Fatalf("victim error %v should wrap ErrInjected", errs[2])
	}
	for _, rank := range []int{0, 1, 3} {
		if !errors.Is(errs[rank], ErrAborted) {
			t.Fatalf("peer rank %d error %v should wrap ErrAborted", rank, errs[rank])
		}
	}
}

func TestFaultyDelayAndStallSucceed(t *testing.T) {
	const n = 2
	hub := NewHub(n)
	counts := make([]FaultCounts, n)
	withDeadline(t, 5*time.Second, func() {
		var wg sync.WaitGroup
		for rank := 0; rank < n; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				w := NewFaulty(hub.Worker(rank), Plan{Faults: []Fault{
					{Kind: FaultDelay, Rank: 0, Op: OpAllreduce},
					{Kind: FaultStall, Rank: 1, Op: OpAllgather, Delay: 2 * time.Millisecond},
				}})
				for k := 0; k < 3; k++ {
					x := []float32{1}
					if err := w.AllreduceF32(x); err != nil {
						panic(err)
					}
					if x[0] != n {
						panic(fmt.Sprintf("allreduce under delay got %v", x[0]))
					}
					if _, err := w.AllgatherBytes([]byte{byte(rank)}); err != nil {
						panic(err)
					}
				}
				counts[rank] = w.Counts()
			}(rank)
		}
		wg.Wait()
	})
	if counts[0].Delays != 3 || counts[1].Stalls != 3 {
		t.Fatalf("counts = %+v, want 3 delays at rank 0 and 3 stalls at rank 1", counts)
	}
	if counts[0].Total() != 3 || counts[1].Total() != 3 {
		t.Fatalf("unexpected extra faults: %+v", counts)
	}
}

// TestFaultyCorruptMutatesPayloadNotCaller checks corruption reaches the
// peers while the caller's own buffer stays untouched.
func TestFaultyCorruptMutatesPayloadNotCaller(t *testing.T) {
	const n = 2
	hub := NewHub(n)
	payload := bytes.Repeat([]byte{0xAA}, 256)
	orig := append([]byte(nil), payload...)
	var got []byte
	withDeadline(t, 5*time.Second, func() {
		var wg sync.WaitGroup
		for rank := 0; rank < n; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				w := NewFaulty(hub.Worker(rank), Plan{Seed: 3, Faults: []Fault{
					{Kind: FaultCorrupt, Rank: 0, Op: OpAllgather},
				}})
				var b []byte
				if rank == 0 {
					b = payload
				} else {
					b = []byte{1}
				}
				all, err := w.AllgatherBytes(b)
				if err != nil {
					panic(err)
				}
				if rank == 1 {
					got = all[0]
				}
			}(rank)
		}
		wg.Wait()
	})
	if !bytes.Equal(payload, orig) {
		t.Fatal("corruption mutated the caller's buffer")
	}
	if bytes.Equal(got, orig) {
		t.Fatal("peer received an uncorrupted payload despite injected corruption")
	}
	if len(got) != len(orig) {
		t.Fatalf("corruption changed payload length %d -> %d", len(orig), len(got))
	}
}

func TestFaultPlanMatching(t *testing.T) {
	cases := []struct {
		name  string
		fault Fault
		rank  int
		op    Op
		step  int64
		want  bool
	}{
		{"any", Fault{Rank: AnyRank}, 3, OpAllgather, 7, true},
		{"rank match", Fault{Rank: 2}, 2, OpBarrier, 1, true},
		{"rank mismatch", Fault{Rank: 2}, 1, OpBarrier, 1, false},
		{"op match", Fault{Rank: AnyRank, Op: OpAllreduce}, 0, OpAllreduce, 1, true},
		{"op mismatch", Fault{Rank: AnyRank, Op: OpAllreduce}, 0, OpBarrier, 1, false},
		{"window inside", Fault{Rank: AnyRank, FromStep: 2, ToStep: 4}, 0, OpBarrier, 3, true},
		{"window before", Fault{Rank: AnyRank, FromStep: 2, ToStep: 4}, 0, OpBarrier, 1, false},
		{"window after", Fault{Rank: AnyRank, FromStep: 2, ToStep: 4}, 0, OpBarrier, 5, false},
		{"open window", Fault{Rank: AnyRank, FromStep: 2}, 0, OpBarrier, 1 << 30, true},
	}
	for _, c := range cases {
		if got := c.fault.matches(c.rank, c.op, c.step); got != c.want {
			t.Errorf("%s: matches = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestFaultyProbabilisticDeterminism: the same seed injects the same faults;
// a different seed (eventually) differs.
func TestFaultyProbabilisticDeterminism(t *testing.T) {
	run := func(seed uint64) []bool {
		hub := NewHub(1) // size-1 hub: ops complete immediately
		w := NewFaulty(hub.Worker(0), Plan{Seed: seed, Faults: []Fault{
			{Kind: FaultStall, Rank: AnyRank, Prob: 0.5, Delay: time.Microsecond},
		}})
		pattern := make([]bool, 64)
		for i := range pattern {
			before := w.Counts().Stalls
			if err := w.Barrier(); err != nil {
				t.Fatal(err)
			}
			pattern[i] = w.Counts().Stalls > before
		}
		return pattern
	}
	a1, a2, b := run(1), run(1), run(2)
	same12, same1b := true, true
	for i := range a1 {
		same12 = same12 && a1[i] == a2[i]
		same1b = same1b && a1[i] == b[i]
	}
	if !same12 {
		t.Fatal("same seed produced different injection patterns")
	}
	if same1b {
		t.Fatal("different seeds produced identical injection patterns (suspicious)")
	}
}

func TestHubAbortUnblocksWaiters(t *testing.T) {
	const n = 3
	hub := NewHub(n)
	errs := make([]error, n)
	withDeadline(t, 5*time.Second, func() {
		var wg sync.WaitGroup
		for rank := 0; rank < n-1; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				errs[rank] = hub.Worker(rank).Barrier()
			}(rank)
		}
		time.Sleep(10 * time.Millisecond) // let them block
		hub.Abort(errors.New("boom"))
		wg.Wait()
	})
	for rank := 0; rank < n-1; rank++ {
		if !errors.Is(errs[rank], ErrAborted) {
			t.Fatalf("rank %d: %v should wrap ErrAborted", rank, errs[rank])
		}
	}
	// Late arrivals fail fast too.
	if err := hub.Worker(n - 1).Barrier(); !errors.Is(err, ErrAborted) {
		t.Fatalf("post-abort op returned %v", err)
	}
}
