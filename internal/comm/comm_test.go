package comm

import (
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/fxrand"
)

// runGroup executes fn concurrently for each rank over an in-process hub.
func runGroup(t *testing.T, n int, fn func(w Collective) error) {
	t.Helper()
	hub := NewHub(n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(hub.Worker(rank))
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestSerialCollective(t *testing.T) {
	var c Collective = Serial{}
	if c.Rank() != 0 || c.Size() != 1 {
		t.Fatal("serial identity wrong")
	}
	x := []float32{1, 2}
	if err := c.AllreduceF32(x); err != nil || x[0] != 1 {
		t.Fatal("serial allreduce should be identity")
	}
	g, err := c.AllgatherBytes([]byte{5})
	if err != nil || len(g) != 1 || g[0][0] != 5 {
		t.Fatal("serial allgather wrong")
	}
}

func TestInProcAllreduce(t *testing.T) {
	const n = 4
	runGroup(t, n, func(w Collective) error {
		x := []float32{float32(w.Rank()), 1}
		if err := w.AllreduceF32(x); err != nil {
			return err
		}
		if x[0] != 0+1+2+3 || x[1] != n {
			return fmt.Errorf("allreduce got %v", x)
		}
		return nil
	})
}

func TestInProcAllreduceBitwiseIdentical(t *testing.T) {
	const n, dim = 5, 1000
	results := make([][]float32, n)
	var mu sync.Mutex
	runGroup(t, n, func(w Collective) error {
		r := fxrand.New(uint64(w.Rank()) + 1)
		x := make([]float32, dim)
		for i := range x {
			x[i] = r.NormFloat32()
		}
		if err := w.AllreduceF32(x); err != nil {
			return err
		}
		mu.Lock()
		results[w.Rank()] = x
		mu.Unlock()
		return nil
	})
	for rank := 1; rank < n; rank++ {
		for i := range results[0] {
			if results[rank][i] != results[0][i] {
				t.Fatalf("rank %d differs at %d", rank, i)
			}
		}
	}
}

func TestInProcAllgatherVariableLengths(t *testing.T) {
	const n = 3
	runGroup(t, n, func(w Collective) error {
		payload := make([]byte, w.Rank()+1)
		for i := range payload {
			payload[i] = byte(w.Rank())
		}
		all, err := w.AllgatherBytes(payload)
		if err != nil {
			return err
		}
		for rank := 0; rank < n; rank++ {
			if len(all[rank]) != rank+1 || (rank > 0 && all[rank][0] != byte(rank)) {
				return fmt.Errorf("gathered %v", all)
			}
		}
		return nil
	})
}

func TestInProcBroadcast(t *testing.T) {
	const n = 4
	runGroup(t, n, func(w Collective) error {
		var payload []byte
		if w.Rank() == 2 {
			payload = []byte("hello")
		}
		got, err := w.BroadcastBytes(payload, 2)
		if err != nil {
			return err
		}
		if string(got) != "hello" {
			return fmt.Errorf("broadcast got %q", got)
		}
		return nil
	})
}

func TestInProcManySequentialRounds(t *testing.T) {
	// Stress the round-object hand-off: fast workers must not corrupt slow
	// workers' reads across thousands of rounds.
	const n, rounds = 4, 2000
	runGroup(t, n, func(w Collective) error {
		for k := 0; k < rounds; k++ {
			x := []float32{float32(w.Rank() + k)}
			if err := w.AllreduceF32(x); err != nil {
				return err
			}
			want := float32(n*k + (n-1)*n/2)
			if x[0] != want {
				return fmt.Errorf("round %d: got %v want %v", k, x[0], want)
			}
		}
		return nil
	})
}

func TestInProcBarrier(t *testing.T) {
	const n = 8
	var counter sync.Map
	runGroup(t, n, func(w Collective) error {
		counter.Store(w.Rank(), true)
		if err := w.Barrier(); err != nil {
			return err
		}
		// After the barrier, every rank must have checked in.
		for r := 0; r < n; r++ {
			if _, ok := counter.Load(r); !ok {
				return fmt.Errorf("barrier passed before rank %d arrived", r)
			}
		}
		return nil
	})
}

func TestMeterAccounting(t *testing.T) {
	runGroup(t, 2, func(w Collective) error {
		m := NewMeter(w)
		x := make([]float32, 10)
		if err := m.AllreduceF32(x); err != nil {
			return err
		}
		if _, err := m.AllgatherBytes(make([]byte, 7)); err != nil {
			return err
		}
		if _, err := m.BroadcastBytes([]byte{1, 2, 3}, 0); err != nil {
			return err
		}
		want := int64(40 + 7)
		if m.Rank() == 0 {
			want += 3
		}
		if m.BytesSent() != want {
			return fmt.Errorf("rank %d metered %d bytes, want %d", m.Rank(), m.BytesSent(), want)
		}
		if m.Ops() != 3 {
			return fmt.Errorf("ops = %d", m.Ops())
		}
		m.Reset()
		if m.BytesSent() != 0 || m.Ops() != 0 {
			return fmt.Errorf("reset failed")
		}
		return nil
	})
}

// --- TCP ring ---

// bindAddrs binds n loopback listeners on ports the kernel picks, one per
// rank, to be handed to that rank's ring (RingConfig.Listener), which owns it
// from then on. The cleanup closes any listener a test never handed over.
func bindAddrs(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	return lns, addrs
}

// holdAddrs is bindAddrs plus a descriptor of each socket kept for the
// test's life ((*net.TCPListener).File), the way a supervisor keeps a rank's
// socket across its incarnations: the founders get the bound listeners,
// listenerOf hands a later incarnation its own listener of the same socket,
// and a killed incarnation leaves the port bound for the next.
func holdAddrs(t *testing.T, n int) ([]net.Listener, []*os.File, []string) {
	t.Helper()
	lns, addrs := bindAddrs(t, n)
	socks := make([]*os.File, n)
	for i, ln := range lns {
		f, err := ln.(*net.TCPListener).File()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		socks[i] = f
	}
	return lns, socks, addrs
}

// listenerOf is one incarnation's listener of a socket holdAddrs keeps.
func listenerOf(t *testing.T, f *os.File) net.Listener {
	t.Helper()
	ln, err := net.FileListener(f)
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func runTCPGroup(t *testing.T, n int, fn func(w Collective) error) {
	t.Helper()
	lns, addrs := bindAddrs(t, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ring, err := DialTCPRingConfig(RingConfig{Rank: rank, Addrs: addrs, Listener: lns[rank], SetupTimeout: 5 * time.Second})
			if err != nil {
				errs[rank] = err
				return
			}
			defer ring.Close()
			errs[rank] = fn(ring)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestTCPRingAllreduceMatchesSerialSum(t *testing.T) {
	const n, dim = 3, 1003 // non-divisible length exercises chunk edges
	inputs := make([][]float32, n)
	for rank := 0; rank < n; rank++ {
		r := fxrand.New(uint64(rank) + 10)
		inputs[rank] = make([]float32, dim)
		for i := range inputs[rank] {
			inputs[rank][i] = r.NormFloat32()
		}
	}
	want := make([]float32, dim)
	for _, in := range inputs {
		for i, v := range in {
			want[i] += v
		}
	}
	runTCPGroup(t, n, func(w Collective) error {
		x := append([]float32(nil), inputs[w.Rank()]...)
		if err := w.AllreduceF32(x); err != nil {
			return err
		}
		for i := range x {
			diff := x[i] - want[i]
			if diff > 1e-4 || diff < -1e-4 {
				return fmt.Errorf("element %d: got %v want %v", i, x[i], want[i])
			}
		}
		return nil
	})
	// Two ranks: each element is one float32 addition, so the ring must equal
	// the serial sum bit for bit. The lengths give empty chunks, one-float
	// chunks, and chunks twice the 64 KiB staging buffer; the odd-length
	// allgather before each allreduce leaves the float bodies at an odd offset
	// in the read buffer.
	runTCPGroup(t, 2, func(w Collective) error {
		for iter, n := range []int{0, 1, 3, 1<<16 + 3} {
			all, err := w.AllgatherBytes(make([]byte, 2*iter+1))
			if err != nil {
				return err
			}
			if len(all[1-w.Rank()]) != 2*iter+1 {
				return fmt.Errorf("allgather before %d floats: %d bytes from the peer", n, len(all[1-w.Rank()]))
			}
			x := denseInput(w.Rank(), iter, n)
			if err := w.AllreduceF32(x); err != nil {
				return err
			}
			if !bitsEqual(x, serialSum(2, iter, n)) {
				return fmt.Errorf("%d floats: ring sum differs from the serial sum", n)
			}
		}
		return nil
	})
}

func TestTCPRingAllgather(t *testing.T) {
	const n = 4
	runTCPGroup(t, n, func(w Collective) error {
		payload := []byte(fmt.Sprintf("rank-%d", w.Rank()))
		all, err := w.AllgatherBytes(payload)
		if err != nil {
			return err
		}
		for rank := 0; rank < n; rank++ {
			if string(all[rank]) != fmt.Sprintf("rank-%d", rank) {
				return fmt.Errorf("gathered %q at %d", all[rank], rank)
			}
		}
		return nil
	})
}

func TestTCPRingBroadcast(t *testing.T) {
	const n = 3
	runTCPGroup(t, n, func(w Collective) error {
		var payload []byte
		if w.Rank() == 1 {
			payload = []byte("xyz")
		}
		got, err := w.BroadcastBytes(payload, 1)
		if err != nil {
			return err
		}
		if string(got) != "xyz" {
			return fmt.Errorf("broadcast got %q", got)
		}
		return nil
	})
}

func TestTCPRingBarrierAndRepeatedOps(t *testing.T) {
	const n = 3
	runTCPGroup(t, n, func(w Collective) error {
		for k := 0; k < 20; k++ {
			if err := w.Barrier(); err != nil {
				return err
			}
			x := []float32{1}
			if err := w.AllreduceF32(x); err != nil {
				return err
			}
			if x[0] != n {
				return fmt.Errorf("round %d got %v", k, x[0])
			}
		}
		return nil
	})
}

func TestTCPRingLargePayload(t *testing.T) {
	const n = 2
	big := 1 << 18 // 256 KiB of float32s = 1 MiB frames, exceeds socket buffers
	runTCPGroup(t, n, func(w Collective) error {
		x := make([]float32, big)
		for i := range x {
			x[i] = 1
		}
		if err := w.AllreduceF32(x); err != nil {
			return err
		}
		if x[0] != n || x[big-1] != n {
			return fmt.Errorf("large allreduce wrong")
		}
		return nil
	})
}

// TestDialTCPRingRejectsBadConfig: each rejected configuration fails at once,
// and the listener it handed over is closed with it: its address can be bound
// again.
func TestDialTCPRingRejectsBadConfig(t *testing.T) {
	dial := func(cfg RingConfig) error { _, err := DialTCPRingConfig(cfg); return err }
	join := func(cfg RingConfig) error { _, err := JoinTCPRing(cfg, time.Second); return err }
	for _, tc := range []struct {
		name  string
		open  func(RingConfig) error
		rank  int
		addrs int  // entries in Addrs, all this row's address
		hand  bool // hand the bound listener over
	}{
		{"nil listener", dial, 0, 2, false},
		{"1-node ring", dial, 0, 1, true},
		{"rank out of range", dial, 5, 2, true},
		{"join without heartbeat", join, 0, 2, true}, // Heartbeat is 0 in every row
	} {
		t.Run(tc.name, func(t *testing.T) {
			lns, addrs := bindAddrs(t, 1)
			cfg := RingConfig{Rank: tc.rank, SetupTimeout: 5 * time.Second}
			for range tc.addrs {
				cfg.Addrs = append(cfg.Addrs, addrs[0])
			}
			if tc.hand {
				cfg.Listener = lns[0]
			}
			start := time.Now()
			if err := tc.open(cfg); err == nil {
				t.Fatal("config accepted")
			}
			if took := time.Since(start); took > time.Second {
				t.Errorf("rejection took %v", took)
			}
			if !tc.hand {
				return
			}
			ln, err := net.Listen("tcp", addrs[0])
			if err != nil {
				t.Fatalf("the handed listener outlived the rejection: %v", err)
			}
			ln.Close()
		})
	}
}

func TestHubWorkerBadRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHub(2).Worker(2)
}

// TestCollectiveLockstepConcurrency enforces the documented concurrency
// contract: distinct workers' handles are driven from separate goroutines
// that race through a long, mixed sequence of collectives — but each worker
// issues the identical op sequence in the same order, which must always
// produce correct, rank-agreed results. Run with -race this also proves the
// hub's round objects are published safely.
func TestCollectiveLockstepConcurrency(t *testing.T) {
	const (
		n      = 5
		rounds = 200
	)
	for _, sub := range []struct {
		name   string
		worker func(rank int) Collective
	}{
		{"hub", func() func(int) Collective {
			hub := NewHub(n)
			return func(rank int) Collective { return hub.Worker(rank) }
		}()},
	} {
		t.Run(sub.name, func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make([]error, n)
			for rank := 0; rank < n; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					w := sub.worker(rank)
					for r := 0; r < rounds; r++ {
						// Every worker runs this same deterministic mix.
						switch r % 4 {
						case 0:
							x := []float32{float32(w.Rank()), float32(r)}
							if err := w.AllreduceF32(x); err != nil {
								errs[rank] = err
								return
							}
							want := float32(n * (n - 1) / 2)
							if x[0] != want || x[1] != float32(r*n) {
								errs[rank] = fmt.Errorf("round %d allreduce got %v", r, x)
								return
							}
						case 1:
							// Variable-length payloads: rank i sends i+1 bytes.
							b := make([]byte, w.Rank()+1)
							for i := range b {
								b[i] = byte(r)
							}
							all, err := w.AllgatherBytes(b)
							if err != nil {
								errs[rank] = err
								return
							}
							for i, p := range all {
								if len(p) != i+1 || (len(p) > 0 && p[0] != byte(r)) {
									errs[rank] = fmt.Errorf("round %d allgather rank %d got %d bytes", r, i, len(p))
									return
								}
							}
						case 2:
							root := r % n
							var b []byte
							if w.Rank() == root {
								b = []byte{byte(r), byte(root)}
							}
							got, err := w.BroadcastBytes(b, root)
							if err != nil {
								errs[rank] = err
								return
							}
							if len(got) != 2 || got[0] != byte(r) || got[1] != byte(root) {
								errs[rank] = fmt.Errorf("round %d broadcast got %v", r, got)
								return
							}
						case 3:
							if err := w.Barrier(); err != nil {
								errs[rank] = err
								return
							}
						}
					}
				}(rank)
			}
			wg.Wait()
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}
		})
	}
}
