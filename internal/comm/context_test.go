package comm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// bareColl implements Collective by delegation without implementing
// ContextCollective, so the dispatch helpers must take their fallback path.
type bareColl struct{ inner Collective }

func (b *bareColl) Rank() int                      { return b.inner.Rank() }
func (b *bareColl) Size() int                      { return b.inner.Size() }
func (b *bareColl) AllreduceF32(x []float32) error { return b.inner.AllreduceF32(x) }
func (b *bareColl) AllgatherBytes(p []byte) ([][]byte, error) {
	return b.inner.AllgatherBytes(p)
}
func (b *bareColl) BroadcastBytes(p []byte, root int) ([]byte, error) {
	return b.inner.BroadcastBytes(p, root)
}
func (b *bareColl) Barrier() error { return b.inner.Barrier() }

// TestDispatchFallback: the helpers must gate a non-context collective on
// ctx.Err — an expired context refuses to start the op — and pass a live
// context straight through.
func TestDispatchFallback(t *testing.T) {
	c := &bareColl{inner: Serial{}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := AllreduceF32(ctx, c, []float32{1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("allreduce on cancelled ctx: err = %v, want Canceled", err)
	}
	if _, err := AllgatherBytes(ctx, c, []byte{1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("allgather on cancelled ctx: err = %v, want Canceled", err)
	}
	if _, err := BroadcastBytes(ctx, c, []byte{1}, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("broadcast on cancelled ctx: err = %v, want Canceled", err)
	}
	if err := Barrier(ctx, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("barrier on cancelled ctx: err = %v, want Canceled", err)
	}
	if err := AllreduceF32(context.Background(), c, []float32{1}); err != nil {
		t.Fatalf("allreduce on live ctx: %v", err)
	}
}

// TestSerialContext: Serial has no Ctx methods of its own; the dispatch
// helpers' gate gives it the same semantics.
func TestSerialContext(t *testing.T) {
	var c Collective = Serial{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := AllreduceF32(ctx, c, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	out, err := AllgatherBytes(context.Background(), c, []byte{7})
	if err != nil || len(out) != 1 || out[0][0] != 7 {
		t.Fatalf("allgather = %v, %v", out, err)
	}
}

// dialRingPair builds a 2-rank ring for context tests; rank 1's handle is
// returned too so the test can keep it alive (and silent) while rank 0's op
// waits on it.
func dialRingPair(t *testing.T, opTO time.Duration) (r0, r1 *TCPRing) {
	t.Helper()
	lns, addrs := bindAddrs(t, 2)
	rings := make([]*TCPRing, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rings[rank], errs[rank] = DialTCPRingConfig(RingConfig{
				Rank: rank, Addrs: addrs, Listener: lns[rank],
				SetupTimeout: 5 * time.Second,
				OpTimeout:    opTO,
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", rank, err)
		}
	}
	t.Cleanup(func() { rings[0].Close(); rings[1].Close() })
	return rings[0], rings[1]
}

// TestTCPRingCtxDeadline: a context deadline must bound an op even when the
// transport's own OpTimeout is far longer — the collective against a silent
// peer fails within the ctx budget, typed and wrapping DeadlineExceeded.
func TestTCPRingCtxDeadline(t *testing.T) {
	r0, _ := dialRingPair(t, time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := r0.AllreduceF32Ctx(ctx, make([]float32, 1024))
	if err == nil {
		t.Fatal("allreduce against a silent peer with a 150ms ctx deadline should fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	var ce *Error
	if !errors.As(err, &ce) || ce.Op != OpAllreduce {
		t.Fatalf("error %v lacks typed op coordinates", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("op took %v; the ctx deadline did not bound it", waited)
	}
}

// TestTCPRingCtxCancel: cancellation (no deadline at all) must unblock an op
// promptly and surface context.Canceled.
func TestTCPRingCtxCancel(t *testing.T) {
	r0, _ := dialRingPair(t, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := r0.AllgatherBytesCtx(ctx, []byte("payload"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("op took %v after a 100ms cancel", waited)
	}
}

// TestTCPRingCtxPreExpired: an already-dead context must refuse to start the
// op — the step counter must not advance, so the lockstep sequence is not
// consumed on a rank that never touched the wire.
func TestTCPRingCtxPreExpired(t *testing.T) {
	r0, _ := dialRingPair(t, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := r0.Step()
	if err := r0.BarrierCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if r0.Step() != before {
		t.Fatal("a refused op must not consume a lockstep step")
	}
}

// TestTCPRingWithTimeout: the WithTimeout wrapper bounds plain (non-ctx)
// calls on a real ring — the replacement for per-transport timeout knobs.
func TestTCPRingWithTimeout(t *testing.T) {
	r0, _ := dialRingPair(t, -1) // frame deadlines off: ctx is the only bound
	c := WithTimeout(r0, 150*time.Millisecond)
	start := time.Now()
	err := c.AllreduceF32(make([]float32, 64))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("op took %v; WithTimeout did not bound it", waited)
	}
}
