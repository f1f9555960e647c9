package comm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestHubReformClearsAbort: after a poison, a full reform rendezvous restores
// the group, bumps the generation, and collectives work again.
func TestHubReformClearsAbort(t *testing.T) {
	const n = 3
	hub := NewHub(n)
	hub.Abort(fmt.Errorf("simulated: %w", ErrPeerDead))
	if err := hub.Worker(0).Barrier(); !errors.Is(err, ErrAborted) {
		t.Fatalf("poisoned hub barrier err = %v, want ErrAborted", err)
	}
	var wg sync.WaitGroup
	gens := make([]uint64, n)
	errs := make([]error, n)
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			gens[rank], errs[rank] = hub.Worker(rank).Reform()
		}(rank)
	}
	wg.Wait()
	for rank := 0; rank < n; rank++ {
		if errs[rank] != nil {
			t.Fatalf("rank %d reform: %v", rank, errs[rank])
		}
		if gens[rank] != 1 {
			t.Fatalf("rank %d reformed into generation %d, want 1", rank, gens[rank])
		}
	}
	// The healed hub completes real collectives.
	sums := make([][]float32, n)
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			x := []float32{float32(rank)}
			errs[rank] = hub.Worker(rank).AllreduceF32(x)
			sums[rank] = x
		}(rank)
	}
	wg.Wait()
	for rank := 0; rank < n; rank++ {
		if errs[rank] != nil || sums[rank][0] != 3 {
			t.Fatalf("rank %d after reform: sum %v err %v", rank, sums[rank], errs[rank])
		}
	}
	if hub.Generation() != 1 {
		t.Fatalf("hub generation %d, want 1", hub.Generation())
	}
}

// TestHubReformTimeout: a lone rank whose peers never arrive gets a typed
// ErrPeerDead instead of waiting forever.
func TestHubReformTimeout(t *testing.T) {
	hub := NewHub(3)
	hub.SetReformTimeout(50 * time.Millisecond)
	_, err := hub.Worker(0).Reform()
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("err = %v, want ErrPeerDead", err)
	}
	var ce *Error
	if !errors.As(err, &ce) || ce.Op != OpReform {
		t.Fatalf("error %v lacks OpReform coordinates", err)
	}
}

// TestRingReformAfterKill is the transport-level rejoin scenario: a 3-rank
// generation ring loses rank 1 (abrupt socket teardown), the survivors'
// collectives fail with ErrPeerDead without their processes restarting, and a
// concurrent Reform on the survivors plus a fresh DialTCPRingConfig at the replacement
// — dialing blind at generation 0 — converges the whole group on generation 1
// and completes bitwise-correct collectives.
func TestRingReformAfterKill(t *testing.T) {
	const n = 3
	const hbInterval = 25 * time.Millisecond
	lns, socks, addrs := holdAddrs(t, n)

	rings := make([]*TCPRing, n)
	// The test holds every rank's socket (holdAddrs): the replacement for
	// rank 1 serves the socket its killed predecessor served, and the port is
	// never released in between.
	cfg := func(rank int, ln net.Listener) RingConfig {
		return RingConfig{
			Rank: rank, Addrs: addrs, Listener: ln,
			SetupTimeout: 10 * time.Second,
			OpTimeout:    30 * time.Second,
			Heartbeat:    hbInterval,
			Seed:         17,
		}
	}
	withDeadline(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		for rank := 0; rank < n; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				r, err := DialTCPRingConfig(cfg(rank, lns[rank]))
				if err != nil {
					t.Errorf("rank %d dial: %v", rank, err)
					return
				}
				rings[rank] = r
			}(rank)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		defer func() {
			for _, r := range rings {
				if r != nil {
					r.Close()
				}
			}
		}()

		// A healthy round first, then rank 1 dies mid-group.
		for rank := 0; rank < n; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				x := []float32{float32(rank)}
				if err := rings[rank].AllreduceF32(x); err != nil || x[0] != 3 {
					t.Errorf("rank %d healthy round: %v %v", rank, x, err)
				}
			}(rank)
		}
		wg.Wait()
		rings[1].Kill()

		// Survivors' next op fails with the liveness verdict.
		for _, rank := range []int{0, 2} {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				err := rings[rank].Barrier()
				if !errors.Is(err, ErrPeerDead) {
					t.Errorf("rank %d post-kill err = %v, want ErrPeerDead", rank, err)
				}
			}(rank)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		// Heal: survivors reform (they know the old generation), the
		// replacement dials blind at generation 0 and discovers generation 1
		// through handshake rejections.
		gens := make([]uint64, n)
		for _, rank := range []int{0, 2} {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				gen, err := rings[rank].Reform()
				if err != nil {
					t.Errorf("rank %d reform: %v", rank, err)
					return
				}
				gens[rank] = gen
			}(rank)
		}
		replacement := cfg(1, listenerOf(t, socks[1]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := DialTCPRingConfig(replacement) // Generation left at 0: must discover
			if err != nil {
				t.Errorf("replacement dial: %v", err)
				return
			}
			rings[1] = r
			gens[1] = r.Generation()
		}()
		wg.Wait()
		if t.Failed() {
			return
		}
		for rank, gen := range gens {
			if gen != 1 {
				t.Errorf("rank %d at generation %d after reform, want 1", rank, gen)
			}
		}

		// The reformed ring completes correct collectives, including an idle
		// stretch longer than the miss window (pings must keep flowing).
		for rank := 0; rank < n; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				x := []float32{float32(rank), 1}
				if err := rings[rank].AllreduceF32(x); err != nil || x[0] != 3 || x[1] != 3 {
					t.Errorf("rank %d reformed round: %v %v", rank, x, err)
					return
				}
				all, err := rings[rank].AllgatherBytes([]byte{byte(rank + 10)})
				if err != nil || len(all) != n || all[2][0] != 12 {
					t.Errorf("rank %d reformed allgather: %v %v", rank, all, err)
					return
				}
				time.Sleep(8 * hbInterval)
				if err := rings[rank].Barrier(); err != nil {
					t.Errorf("rank %d post-idle barrier: %v", rank, err)
				}
			}(rank)
		}
		wg.Wait()
	})
}

// dialHBRing founds an n-rank heartbeat ring on loopback with frame deadlines
// off, the way graceworker dials it; the rings are killed at test end.
func dialHBRing(t *testing.T, n int, hb, setup time.Duration) []*TCPRing {
	t.Helper()
	lns, addrs := bindAddrs(t, n)
	rings := make([]*TCPRing, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rings[rank], errs[rank] = DialTCPRingConfig(RingConfig{
				Rank: rank, Addrs: addrs, Listener: lns[rank], SetupTimeout: setup, OpTimeout: -1, Heartbeat: hb, Seed: 3,
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", rank, err)
		}
	}
	t.Cleanup(func() {
		for _, r := range rings {
			r.Kill()
		}
	})
	return rings
}

// TestWithTimeoutBoundsHungPeer is the -optimeout regression: a peer that is
// wedged but not yet convicted by the liveness layer (its miss window is
// seconds long) must not block a survivor's step. WithTimeout's deadline has
// to reach the ring's sockets — on the founding incarnation and again on the
// one an elastic shrink produced, which used to be a type without Ctx methods
// that the deadline fell straight through.
func TestWithTimeoutBoundsHungPeer(t *testing.T) {
	rings := dialHBRing(t, 3, time.Second, 10*time.Second)
	withDeadline(t, 60*time.Second, func() {
		expectTimeout := func(when string) {
			start := time.Now()
			err := WithTimeout(rings[0], 200*time.Millisecond).AllreduceF32(make([]float32, 64))
			var ce *Error
			if !errors.Is(err, context.DeadlineExceeded) || !errors.As(err, &ce) || ce.Op != OpAllreduce {
				t.Errorf("%s: err = %v, want a typed allreduce error wrapping DeadlineExceeded", when, err)
			}
			if waited := time.Since(start); waited > time.Second {
				t.Errorf("%s: the 200ms deadline took %v to fire", when, waited)
			}
		}
		rings[1].Hang()
		expectTimeout("founding ring")

		// The wedged rank is lost for good; the survivors shrink to {0,2}.
		rings[1].Kill()
		var wg sync.WaitGroup
		for _, rank := range []int{0, 2} {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				if mem, err := rings[rank].ReformElastic(300 * time.Millisecond); err != nil || mem.Size() != 2 {
					t.Errorf("rank %d shrink: %v %v", rank, mem, err)
				}
			}(rank)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		rings[2].Hang()
		expectTimeout("after ReformElastic")
	})
}

// TestReformFailuresAreTyped: whichever outcome was asked of the reform
// routine, failing it against an unreachable peer yields a *Error{Op:
// OpReform} stamped with the ring's op count at the time.
func TestReformFailuresAreTyped(t *testing.T) {
	cases := map[string]func(r *TCPRing) error{
		"reform": func(r *TCPRing) error { _, err := r.Reform(); return err },
		"shrink": func(r *TCPRing) error { _, err := r.ReformElastic(100 * time.Millisecond); return err },
		"grow":   func(r *TCPRing) error { _, err := r.ReformGrow([]int{0, 1}); return err },
	}
	for name, reform := range cases {
		t.Run(name, func(t *testing.T) {
			rings := dialHBRing(t, 2, 25*time.Millisecond, time.Second)
			withDeadline(t, 30*time.Second, func() {
				var wg sync.WaitGroup
				for _, r := range rings { // two ops, so the count is not the zero value
					wg.Add(1)
					go func(r *TCPRing) {
						defer wg.Done()
						if err := errors.Join(r.Barrier(), r.Barrier()); err != nil {
							t.Error(err)
						}
					}(r)
				}
				wg.Wait()
				rings[1].Kill()
				err := reform(rings[0])
				ce, ok := err.(*Error)
				if !ok || ce.Op != OpReform || ce.Step != 2 || ce.Rank != 0 {
					t.Errorf("err = %#v (%v), want *Error{Rank: 0, Op: OpReform, Step: 2}", err, err)
				}
			})
		})
	}
}

// TestHBParser: the stateful heartbeat decoder must handle split records,
// reject unknown kinds as corruption, and flag cross-generation pings.
func TestHBParser(t *testing.T) {
	ping := appendRecord(nil, preambleHeartbeat, 7)

	var p hbParser
	// Three pings delivered in awkward fragment sizes.
	stream := bytes.Repeat(ping, 3)
	for _, cut := range [][]byte{stream[:4], stream[4:13], stream[13:14], stream[14:]} {
		bye, err := p.feed(cut, 7)
		if bye || err != nil {
			t.Fatalf("fragmented pings: bye=%v err=%v", bye, err)
		}
	}

	p = hbParser{}
	if bye, err := p.feed(append(append([]byte{}, ping...), hbBye), 7); !bye || err != nil {
		t.Fatalf("bye after ping: bye=%v err=%v", bye, err)
	}

	p = hbParser{}
	if _, err := p.feed([]byte{0xFF}, 7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown kind err = %v, want ErrCorrupt", err)
	}

	p = hbParser{}
	stale := appendRecord(nil, preambleHeartbeat, 6)
	if _, err := p.feed(stale, 7); !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("cross-generation ping err = %v, want ErrStaleGeneration", err)
	}
}

// TestHandshakeCodecs: record encode/decode round-trips and corruption
// rejection for the opening records, the confirmation token and the reply.
func TestHandshakeCodecs(t *testing.T) {
	for _, kind := range []byte{preambleData, preambleHeartbeat, confirmMagic} {
		rec := appendRecord(nil, kind, 0xDEADBEEF01)
		k, gen, err := parseRecord(rec, kindsOpen+string(confirmMagic))
		if err != nil || k != kind || gen != 0xDEADBEEF01 {
			t.Fatalf("handshake round trip kind %q: %q %d %v", kind, k, gen, err)
		}
	}
	for _, status := range []byte{hsAccept, hsReject} {
		rec := appendRecord(nil, status, 3)
		s, gen, err := parseRecord(rec, kindsReply)
		if err != nil || s != status || gen != 3 {
			t.Fatalf("reply round trip %q: %q %d %v", status, s, gen, err)
		}
	}
	if _, _, err := parseRecord([]byte{preambleData, 1}, kindsOpen); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short handshake err = %v, want ErrCorrupt", err)
	}
	if _, _, err := parseRecord(appendRecord(nil, 'Z', 1), kindsOpen); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown handshake kind err = %v, want ErrCorrupt", err)
	}
	if _, _, err := parseRecord(appendRecord(nil, 'Z', 1), kindsReply); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown reply status err = %v, want ErrCorrupt", err)
	}
}

// TestTCPRingOwnsHandedListener: a heartbeat ring founded on listeners its
// caller bound owns them for life. A census probe on a member's address is
// answered, every member can reform on it (back to back, with no wait for the
// listener between setups), and Close releases the address.
func TestTCPRingOwnsHandedListener(t *testing.T) {
	const n, reforms = 2, 12
	rings := dialHBRing(t, n, 25*time.Millisecond, 5*time.Second)
	addrs := rings[0].cfg.Addrs
	withDeadline(t, 30*time.Second, func() {
		for _, addr := range addrs {
			if !probe(addr, 0) {
				t.Errorf("probe of %s went unanswered", addr)
			}
		}
		start := time.Now()
		for k := 1; k <= reforms; k++ {
			var wg sync.WaitGroup
			for rank, r := range rings {
				wg.Add(1)
				go func(rank int, r *TCPRing) {
					defer wg.Done()
					if gen, err := r.Reform(); err != nil || gen != uint64(k) {
						t.Errorf("rank %d reform %d: generation %d, %v", rank, k, gen, err)
					}
				}(rank, r)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
		}
		t.Logf("%d back-to-back %d-rank reforms: %v each", reforms, n, time.Since(start)/reforms)
		for _, r := range rings {
			r.Close()
		}
		for _, addr := range addrs {
			if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
				c.Close()
				t.Errorf("%s still accepts connections after Close", addr)
			}
		}
	})
}
