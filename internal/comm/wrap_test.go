package comm

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fxrand"
)

// wrapperCases are the middleware wrappers, each as a func from a handle to
// the wrapped handle, configured so that nothing fires: conformance is about
// what a wrapper does when it has nothing to do.
var wrapperCases = []struct {
	name string
	wrap func(Collective) Collective
}{
	{"meter", func(c Collective) Collective { return NewMeter(c) }},
	{"faulty", func(c Collective) Collective {
		return NewFaulty(c, Plan{Seed: 9, Faults: []Fault{
			// Present but never matching: wrong rank and closed window.
			{Kind: FaultDrop, Rank: 1 << 20},
			{Kind: FaultCorrupt, Rank: AnyRank, FromStep: 1 << 40},
		}})
	}},
	{"resilient", func(c Collective) Collective { return NewResilient(c, RetryPolicy{}) }},
	{"timeout", func(c Collective) Collective { return WithTimeout(c, time.Minute) }},
}

// stackings returns every wrapper alone plus all of them stacked in each of
// the 24 possible orders.
func stackings() map[string]func(Collective) Collective {
	out := map[string]func(Collective) Collective{}
	for _, w := range wrapperCases {
		out[w.name] = w.wrap
	}
	var permute func(rest []int, order []int)
	permute = func(rest []int, order []int) {
		if len(rest) == 0 {
			name := ""
			for _, i := range order {
				name += "/" + wrapperCases[i].name
			}
			order := append([]int(nil), order...)
			out[name[1:]] = func(c Collective) Collective {
				for _, i := range order { // first named is innermost
					c = wrapperCases[i].wrap(c)
				}
				return c
			}
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			permute(next, append(order, rest[i]))
		}
	}
	permute([]int{0, 1, 2, 3}, nil)
	return out
}

// mixedOps drives all four primitives through c with rank-seeded payloads,
// alternating the plain and Ctx spellings, and returns a digest of everything
// that came back.
func mixedOps(c Collective) (uint64, error) {
	h := fnv.New64a()
	r := fxrand.New(uint64(c.Rank()) + 1)
	ctx := context.Background()
	for k := 0; k < 12; k++ {
		x := make([]float32, 67)
		for i := range x {
			x[i] = r.NormFloat32()
		}
		payload := []byte{byte(c.Rank()), byte(k), byte(r.Uint64())}
		var all [][]byte
		var out []byte
		var err error
		if k%2 == 0 {
			if err = c.AllreduceF32(x); err == nil {
				if all, err = c.AllgatherBytes(payload); err == nil {
					if out, err = c.BroadcastBytes(payload, k%c.Size()); err == nil {
						err = c.Barrier()
					}
				}
			}
		} else {
			if err = AllreduceF32(ctx, c, x); err == nil {
				if all, err = AllgatherBytes(ctx, c, payload); err == nil {
					if out, err = BroadcastBytes(ctx, c, payload, k%c.Size()); err == nil {
						err = Barrier(ctx, c)
					}
				}
			}
		}
		if err != nil {
			return 0, err
		}
		h.Write(leFloats(x...))
		for _, p := range all {
			h.Write(p)
		}
		h.Write(out)
	}
	return h.Sum64(), nil
}

// TestWrapperConformance: over the hub and over a loopback TCPRing, every
// wrapper — alone and in every stacking order — returns results bitwise equal
// to the bare handle's for all four primitives, in both spellings. Each
// transport is set up once: every rank runs the bare handle and then each
// stacking, in the same order, over the same handle.
func TestWrapperConformance(t *testing.T) {
	const n = 3
	cases := stackings()
	names := []string{""} // the bare handle first
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names[1:])
	transports := map[string]func(*testing.T, int, func(Collective) error){"hub": runGroup, "tcp": runTCPGroup}
	for tname, run := range transports {
		digests := make([][n]uint64, len(names))
		run(t, n, func(c Collective) error {
			for i, name := range names {
				w := c
				if name != "" {
					w = cases[name](c)
				}
				d, err := mixedOps(w)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				digests[i][c.Rank()] = d
			}
			return nil
		})
		for i, name := range names[1:] {
			if got, bare := digests[i+1], digests[0]; got != bare {
				t.Errorf("%s %s: results %x differ from the bare handle's %x", tname, name, got, bare)
			}
		}
	}
}

// ctxSpy is a transport stand-in that records the context its Ctx methods
// were handed.
type ctxSpy struct {
	Serial
	seen context.Context
}

func (s *ctxSpy) AllreduceF32Ctx(ctx context.Context, x []float32) error { s.seen = ctx; return nil }
func (s *ctxSpy) AllgatherBytesCtx(ctx context.Context, b []byte) ([][]byte, error) {
	s.seen = ctx
	return [][]byte{b}, nil
}
func (s *ctxSpy) BroadcastBytesCtx(ctx context.Context, b []byte, root int) ([]byte, error) {
	s.seen = ctx
	return b, nil
}
func (s *ctxSpy) BarrierCtx(ctx context.Context) error { s.seen = ctx; return nil }

// TestWrappersRelayContext: a deadline handed to a Ctx method reaches the
// transport through any stack of wrappers, for every primitive; the plain
// spelling reaches it with no deadline except under WithTimeout, the one
// producer of deadlines.
func TestWrappersRelayContext(t *testing.T) {
	want := time.Now().Add(time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()
	ops := map[Op]func(c Collective) error{
		OpAllreduce: func(c Collective) error { return AllreduceF32(ctx, c, []float32{1}) },
		OpAllgather: func(c Collective) error { _, err := AllgatherBytes(ctx, c, []byte{1}); return err },
		OpBroadcast: func(c Collective) error { _, err := BroadcastBytes(ctx, c, []byte{1}, 0); return err },
		OpBarrier:   func(c Collective) error { return Barrier(ctx, c) },
	}
	for name, wrap := range stackings() {
		for op, call := range ops {
			spy := &ctxSpy{}
			if err := call(wrap(spy)); err != nil {
				t.Fatalf("%s %s: %v", name, op, err)
			}
			// WithTimeout(1m) in the stack tightens an hour to a minute.
			if got, ok := spy.seen.Deadline(); !ok || got.After(want) {
				t.Errorf("%s %s: transport saw deadline %v (set=%v), want at most %v", name, op, got, ok, want)
			}
		}
		spy := &ctxSpy{}
		if err := wrap(spy).AllreduceF32([]float32{1}); err != nil {
			t.Fatalf("%s plain: %v", name, err)
		}
		_, bounded := spy.seen.Deadline()
		if hasTimeout := strings.Contains(name, "timeout"); bounded != hasTimeout {
			t.Errorf("%s plain: transport saw a deadline = %v, want %v", name, bounded, hasTimeout)
		}
	}
}

// TestWrappersRefuseExpiredContext: an expired context handed to any stack of
// wrappers never enrols the worker in a lockstep round — on the hub nothing
// is deposited, on the ring no step is consumed — and surfaces the context's
// error.
func TestWrappersRefuseExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	check := func(name string, c Collective) {
		t.Helper()
		if err := AllreduceF32(ctx, c, []float32{1}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s allreduce: err = %v, want Canceled", name, err)
		}
		if _, err := AllgatherBytes(ctx, c, []byte{1}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s allgather: err = %v, want Canceled", name, err)
		}
		if _, err := BroadcastBytes(ctx, c, []byte{1}, 0); !errors.Is(err, context.Canceled) {
			t.Errorf("%s broadcast: err = %v, want Canceled", name, err)
		}
		if err := Barrier(ctx, c); !errors.Is(err, context.Canceled) {
			t.Errorf("%s barrier: err = %v, want Canceled", name, err)
		}
	}
	r0, _ := dialRingPair(t, time.Minute)
	for name, wrap := range stackings() {
		hub := NewHub(2)
		check("hub "+name, wrap(hub.Worker(0)))
		if hub.cur.count != 0 {
			t.Errorf("hub %s: a refused op deposited into the round", name)
		}
		check("tcp "+name, wrap(r0))
		if r0.Step() != 0 {
			t.Fatalf("tcp %s: a refused op consumed a lockstep step", name)
		}
	}
}

// TestCapabilitiesSeeThroughWrappers: AsReformer / AsElastic / AsJoiner reach
// the transport through any stacking order, the capability they find works,
// and a transport without the capability — Serial, or a ring dialled without
// heartbeats, whose reform methods exist but cannot work — reports none.
func TestCapabilitiesSeeThroughWrappers(t *testing.T) {
	plain, _ := dialRingPair(t, time.Minute)
	hb := dialHBRing(t, 2, 50*time.Millisecond, 5*time.Second)[0]
	if _, ok := AsReformer(plain); ok {
		t.Fatal("a bare heartbeat-less ring reports reform capability")
	}
	for name, wrap := range stackings() {
		hub := NewHub(1)
		c := wrap(hub.Worker(0))
		rf, ok := AsReformer(c)
		if !ok {
			t.Fatalf("%s: AsReformer did not reach the hub", name)
		}
		if gen, err := rf.Reform(); err != nil || gen != 1 {
			t.Fatalf("%s: reform through the chain: gen %d, err %v", name, gen, err)
		}
		if el, ok := AsElastic(c); !ok || el.Membership().Gen != 1 {
			t.Fatalf("%s: AsElastic did not reach the hub", name)
		}
		if _, ok := AsJoiner(c); !ok {
			t.Fatalf("%s: AsJoiner did not reach the hub", name)
		}

		c = wrap(hb)
		if _, ok := AsReformer(c); !ok {
			t.Fatalf("%s: AsReformer did not reach the heartbeat ring", name)
		}
		if el, ok := AsElastic(c); !ok || el.Membership().Size() != 2 {
			t.Fatalf("%s: AsElastic did not reach the heartbeat ring", name)
		}
		if _, ok := AsJoiner(c); ok {
			t.Fatalf("%s: a ring is joined at construction, it is no Joiner", name)
		}
		c = wrap(plain)
		if rf, ok := AsReformer(c); ok || rf != nil {
			t.Fatalf("%s: a heartbeat-less ring reports reform capability", name)
		}
		if el, ok := AsElastic(c); ok || el != nil {
			t.Fatalf("%s: a heartbeat-less ring reports elastic capability", name)
		}
		if _, ok := AsReformer(wrap(Serial{})); ok {
			t.Fatalf("%s: Serial should not report reform capability", name)
		}
	}
	if got := WithTimeout(Serial{}, 0); got != Collective(Serial{}) {
		t.Fatal("WithTimeout(_, 0) should return inner unchanged")
	}
}

// TestWrappersAddNoAllocs pins the middleware seam: a wrapper with nothing to
// do costs no allocation per op, in either spelling.
func TestWrappersAddNoAllocs(t *testing.T) {
	x := make([]float32, 256)
	b := make([]byte, 64)
	ctx := context.Background()
	measure := func(c Collective) (allreduce, allgather float64) {
		allreduce = testing.AllocsPerRun(200, func() {
			_ = c.AllreduceF32(x)
			_ = AllreduceF32(ctx, c, x)
		})
		allgather = testing.AllocsPerRun(200, func() {
			_, _ = c.AllgatherBytes(b)
			_, _ = AllgatherBytes(ctx, c, b)
		})
		return
	}
	baseR, baseG := measure(Serial{})
	for _, w := range []struct {
		name string
		c    Collective
	}{
		{"meter", NewMeter(Serial{})},
		{"faulty", NewFaulty(Serial{}, Plan{})},
		{"resilient", NewResilient(Serial{}, RetryPolicy{})},
		{"all", NewResilient(NewFaulty(NewMeter(Serial{}), Plan{}), RetryPolicy{})},
	} {
		r, g := measure(w.c)
		if r != baseR || g != baseG {
			t.Errorf("%s adds allocations: allreduce %v (bare %v), allgather %v (bare %v)", w.name, r, baseR, g, baseG)
		}
	}
}

// reenterer is an inner collective that calls back into the wrapper above it
// mid-op, standing in for a second goroutine arriving on the same handle.
type reenterer struct {
	Serial
	outer Collective
}

func (r *reenterer) AllreduceF32(x []float32) error { return r.outer.Barrier() }

// TestWrapperPanicsOnOverlappingOps: the call record lives in the handle, so
// a second op entering a wrapper while one is in flight is a contract breach
// the base catches instead of silently mixing the two ops' arguments.
func TestWrapperPanicsOnOverlappingOps(t *testing.T) {
	inner := &reenterer{}
	m := NewMeter(inner)
	inner.outer = m
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping ops on one wrapper handle went unnoticed")
		}
	}()
	_ = m.AllreduceF32([]float32{1})
}
