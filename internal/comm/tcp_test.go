package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/fxrand"
)

// hostileFrame builds a frame header claiming n body bytes with no body.
func hostileFrame(n uint32) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], n)
	return hdr[:]
}

// appendFrame encodes b as a length-prefixed frame onto dst: what sendFrame
// puts on the wire for a byte body, and the inverse of readFrame.
func appendFrame(dst, b []byte) []byte {
	return append(append(dst, hostileFrame(uint32(len(b)))...), b...)
}

// TestReadFrameRejectsOversizedHeader: a corrupt/hostile 4-byte length prefix
// must be rejected before the body buffer is allocated.
func TestReadFrameRejectsOversizedHeader(t *testing.T) {
	for _, claim := range []uint32{1 << 20, 1<<31 - 1, 1<<32 - 1} {
		r := bufio.NewReader(bytes.NewReader(hostileFrame(claim)))
		buf, err := readFrame(r, 1<<16)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("claim %d: err = %v, want ErrFrameTooLarge", claim, err)
		}
		if buf != nil {
			t.Fatalf("claim %d: got a buffer despite rejection", claim)
		}
	}
}

func TestReadFrameRejectionAllocatesNothingLarge(t *testing.T) {
	payload := hostileFrame(1<<32 - 1)
	allocs := testing.AllocsPerRun(100, func() {
		r := bufio.NewReader(bytes.NewReader(payload))
		_, _ = readFrame(r, 1<<20)
	})
	// bufio.Reader + readers dominate; the point is no 4 GiB body buffer.
	// A handful of small allocations is fine.
	if allocs > 20 {
		t.Fatalf("rejection path allocated %v objects per run", allocs)
	}
}

func TestReadFrameRoundTrip(t *testing.T) {
	var stream []byte
	frames := [][]byte{nil, {1}, bytes.Repeat([]byte{0xCD}, 70000)}
	for _, f := range frames {
		stream = appendFrame(stream, f)
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	for i, want := range frames {
		got, err := readFrame(r, DefaultMaxFrameBytes)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: round trip mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	stream := hostileFrame(100) // claims 100 bytes, delivers 3
	stream = append(stream, 1, 2, 3)
	r := bufio.NewReader(bytes.NewReader(stream))
	if _, err := readFrame(r, 1<<16); err == nil {
		t.Fatal("expected error for truncated body")
	}
}

// TestTCPRingSendRejectsOversizedFrame: the sender side refuses to emit
// frames beyond the bound instead of poisoning the peer.
func TestTCPRingSendRejectsOversizedFrame(t *testing.T) {
	lns, addrs := bindAddrs(t, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	withDeadline(t, 10*time.Second, func() {
		for rank := 0; rank < 2; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ring, err := DialTCPRingConfig(RingConfig{
					Rank: rank, Addrs: addrs, Listener: lns[rank],
					SetupTimeout:  5 * time.Second,
					OpTimeout:     2 * time.Second,
					MaxFrameBytes: 1 << 10,
				})
				if err != nil {
					errs[rank] = err
					return
				}
				defer ring.Close()
				_, errs[rank] = ring.AllgatherBytes(make([]byte, 1<<12))
			}(rank)
		}
		wg.Wait()
	})
	for rank, err := range errs {
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("rank %d: err = %v, want ErrFrameTooLarge", rank, err)
		}
		var ce *Error
		if !errors.As(err, &ce) || ce.Op != OpAllgather || ce.Step != 1 {
			t.Fatalf("rank %d: error %v lacks (op, step) coordinates", rank, err)
		}
	}
}

// TestTCPRingOpDeadline: a peer that goes silent mid-collective must surface
// a timeout error on the healthy rank, not a hang.
func TestTCPRingOpDeadline(t *testing.T) {
	lns, addrs := bindAddrs(t, 2)
	var healthyErr error
	withDeadline(t, 15*time.Second, func() {
		var wg sync.WaitGroup
		release := make(chan struct{})
		for rank := 0; rank < 2; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ring, err := DialTCPRingConfig(RingConfig{
					Rank: rank, Addrs: addrs, Listener: lns[rank],
					SetupTimeout: 5 * time.Second,
					OpTimeout:    200 * time.Millisecond,
				})
				if err != nil {
					t.Error(err)
					return
				}
				defer ring.Close()
				if rank == 1 {
					// Silent peer: never enters the collective.
					<-release
					return
				}
				healthyErr = ring.AllreduceF32(make([]float32, 16))
				close(release)
			}(rank)
		}
		wg.Wait()
	})
	if healthyErr == nil {
		t.Fatal("allreduce against a silent peer should time out")
	}
	var ce *Error
	if !errors.As(healthyErr, &ce) || ce.Rank != 0 || ce.Op != OpAllreduce {
		t.Fatalf("error %v lacks typed (rank, op) coordinates", healthyErr)
	}
	var ne interface{ Timeout() bool }
	if !errors.As(healthyErr, &ne) || !ne.Timeout() {
		t.Fatalf("error %v should be a net timeout", healthyErr)
	}
}

// fakeRankSetup plays rank's side of ring setup at generation 0 over ln:
// it dials and handshakes its successor's data connection (and, with hb,
// the heartbeat connection), accepts and answers its predecessor's, and
// plays the three ring-confirmation rounds (generation twice, member digest
// once), so its neighbors' setup completes. It returns the data connections
// to its successor and from its predecessor, and every connection it opened.
func fakeRankSetup(ln net.Listener, rank int, addrs []string, hb bool) (toSucc, fromPred net.Conn, conns []net.Conn, err error) {
	deadline := time.Now().Add(5 * time.Second)
	roles := []byte{preambleData, preambleHeartbeat}
	if !hb {
		roles = roles[:1]
	}
	rng := fxrand.New(99)
	for _, role := range roles {
		c, _, err := dialHandshake(addrs[(rank+1)%len(addrs)], role, 0, deadline, rng)
		if err != nil {
			return nil, nil, conns, err
		}
		conns = append(conns, c)
		if role == preambleData {
			toSucc = c
		}
	}
	for range roles {
		c, err := ln.Accept()
		if err != nil {
			return nil, nil, conns, err
		}
		conns = append(conns, c)
		role, _, err := readRecord(c, deadline, kindsOpen)
		if err != nil {
			return nil, nil, conns, err
		}
		if err := writeRecord(c, hsAccept, 0, deadline); err != nil {
			return nil, nil, conns, err
		}
		if role == preambleData {
			fromPred = c
		}
	}
	all := make([]int, len(addrs))
	for i := range all {
		all[i] = i
	}
	var in [handshakeLen]byte
	for _, stamp := range []uint64{0, 0, membershipDigest(all)} {
		toSucc.SetWriteDeadline(deadline)
		if _, err := toSucc.Write(appendRecord(nil, confirmMagic, stamp)); err != nil {
			return nil, nil, conns, err
		}
		fromPred.SetReadDeadline(deadline)
		if _, err := io.ReadFull(fromPred, in[:]); err != nil {
			return nil, nil, conns, err
		}
	}
	return toSucc, fromPred, conns, nil
}

// fakeSilentRank performs rank's side of a heartbeat ring's setup on ln (see
// fakeRankSetup) and then goes silent: connections held open, no heartbeats,
// no frames. This is the failure mode only the liveness layer can detect — a
// hung or partitioned process emits no RST, so the data connections of its
// neighbors stay "healthy" right up to their (long) OpTimeout.
func fakeSilentRank(t *testing.T, ln net.Listener, rank int, addrs []string) (stop func()) {
	t.Helper()
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		var err error
		if _, _, conns, err = fakeRankSetup(ln, rank, addrs, true); err != nil {
			t.Error(err)
		}
	}()
	return func() {
		<-done
		ln.Close()
		for _, c := range conns {
			c.Close()
		}
	}
}

// TestSetupSurvivesAbandonedDial: a successor that accepts a dial and then
// abandons its setup attempt — closing that connection before it dials back
// from its next attempt — must not leave the dialer waiting for its setup
// deadline in a confirmation whose successor is gone, while the successor
// waits for a dial the dialer no longer makes. The dialer watches the
// connection it dialed, abandons its own attempt at once, and the two meet
// in their next attempts.
func TestSetupSurvivesAbandonedDial(t *testing.T) {
	lns, addrs := bindAddrs(t, 2)
	cfg := func(rank int) RingConfig {
		return RingConfig{Rank: rank, Addrs: addrs, Listener: lns[rank], SetupTimeout: 20 * time.Second}
	}
	withDeadline(t, 60*time.Second, func() {
		var rings [2]*TCPRing
		var errs [2]error
		var wg sync.WaitGroup
		start := time.Now()
		wg.Add(2)
		go func() {
			defer wg.Done()
			rings[0], errs[0] = DialTCPRingConfig(cfg(0))
		}()
		go func() {
			defer wg.Done()
			// Rank 1's abandoned attempt accepts rank 0's data dial and drops
			// it; its next attempt is a real ring's setup on the same listener.
			deadline := time.Now().Add(5 * time.Second)
			c, err := lns[1].Accept()
			if err != nil {
				errs[1] = err
				return
			}
			if _, _, err = readRecord(c, deadline, kindsOpen); err == nil {
				err = writeRecord(c, hsAccept, 0, deadline)
			}
			c.Close()
			if err != nil {
				errs[1] = err
				return
			}
			rings[1], errs[1] = DialTCPRingConfig(cfg(1))
		}()
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", rank, err)
			}
		}
		defer rings[0].Close()
		defer rings[1].Close()
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("setup took %v after an abandoned dial; the setup deadline is 20s", took)
		}
		for rank, r := range rings {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := []float32{float32(rank + 1)}
				if err := r.AllreduceF32(x); err != nil || x[0] != 3 {
					t.Errorf("rank %d allreduce: %v %v", rank, x, err)
				}
			}()
		}
		wg.Wait()
	})
}

// TestTCPRingHeartbeatDeadPeerAndReform: with heartbeats on, a rank that
// hangs after joining the ring is declared dead within the heartbeat window —
// surfacing a typed *Error wrapping ErrPeerDead on the survivors seconds
// before the per-op stall timeout would fire — and a replacement ring formed
// afterwards (restarted worker included) operates normally.
func TestTCPRingHeartbeatDeadPeerAndReform(t *testing.T) {
	const n = 3
	const hbInterval = 25 * time.Millisecond
	lns, addrs := bindAddrs(t, n)
	stop := fakeSilentRank(t, lns[1], 1, addrs)
	defer stop()

	errs := make([]error, n)
	elapsed := make([]time.Duration, n)
	withDeadline(t, 20*time.Second, func() {
		var wg sync.WaitGroup
		for _, rank := range []int{0, 2} {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ring, err := DialTCPRingConfig(RingConfig{
					Rank: rank, Addrs: addrs, Listener: lns[rank],
					SetupTimeout: 5 * time.Second,
					OpTimeout:    30 * time.Second, // stall tolerance stays long
					Heartbeat:    hbInterval,
				})
				if err != nil {
					errs[rank] = err
					return
				}
				defer ring.Close()
				start := time.Now()
				errs[rank] = ring.AllreduceF32(make([]float32, 64))
				elapsed[rank] = time.Since(start)
			}(rank)
		}
		wg.Wait()
	})
	for _, rank := range []int{0, 2} {
		err := errs[rank]
		if !errors.Is(err, ErrPeerDead) {
			t.Fatalf("rank %d: err = %v, want ErrPeerDead", rank, err)
		}
		var ce *Error
		if !errors.As(err, &ce) || ce.Op != OpHeartbeat {
			t.Fatalf("rank %d: error %v is not a typed heartbeat failure", rank, err)
		}
		if elapsed[rank] > 5*time.Second {
			t.Fatalf("rank %d: detection took %v, should be near the heartbeat window", rank, elapsed[rank])
		}
	}

	// The supervisor restarts the dead worker; the ring reforms on fresh
	// addresses and runs real collectives — including an idle stretch much
	// longer than the miss window, which must NOT trigger a false positive
	// because idle pings keep flowing.
	stop()
	freshLns, fresh := bindAddrs(t, n)
	withDeadline(t, 30*time.Second, func() {
		var wg sync.WaitGroup
		reformErrs := make([]error, n)
		for rank := 0; rank < n; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ring, err := DialTCPRingConfig(RingConfig{
					Rank: rank, Addrs: fresh, Listener: freshLns[rank],
					SetupTimeout: 5 * time.Second,
					OpTimeout:    10 * time.Second,
					Heartbeat:    hbInterval,
				})
				if err != nil {
					reformErrs[rank] = err
					return
				}
				defer ring.Close()
				x := []float32{float32(rank), 1}
				if err := ring.AllreduceF32(x); err != nil {
					reformErrs[rank] = err
					return
				}
				if x[0] != 3 || x[1] != 3 { // 0+1+2, 1+1+1
					reformErrs[rank] = errors.New("wrong allreduce sum after reform")
					return
				}
				time.Sleep(8 * hbInterval) // idle >> miss window
				reformErrs[rank] = ring.Barrier()
			}(rank)
		}
		wg.Wait()
		for rank, err := range reformErrs {
			if err != nil {
				t.Errorf("reformed ring rank %d: %v", rank, err)
			}
		}
	})
}

// TestTCPRingResetFault: a Faulty-injected connection reset at one rank
// surfaces typed errors on every rank within the deadline.
func TestTCPRingResetFault(t *testing.T) {
	const n = 3
	lns, addrs := bindAddrs(t, n)
	errs := make([]error, n)
	withDeadline(t, 15*time.Second, func() {
		var wg sync.WaitGroup
		for rank := 0; rank < n; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ring, err := DialTCPRingConfig(RingConfig{
					Rank: rank, Addrs: addrs, Listener: lns[rank],
					SetupTimeout: 5 * time.Second,
					OpTimeout:    2 * time.Second,
				})
				if err != nil {
					errs[rank] = err
					return
				}
				defer ring.Close()
				w := NewFaulty(ring, Plan{Faults: []Fault{
					{Kind: FaultReset, Rank: 1, Op: OpAllgather, FromStep: 2},
				}})
				for k := 0; k < 5; k++ {
					if _, err := w.AllgatherBytes([]byte{byte(rank), byte(k)}); err != nil {
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
			t.Fatalf("rank %d: completed despite injected reset", rank)
		}
		var ce *Error
		if !errors.As(err, &ce) {
			t.Fatalf("rank %d: error %v is not typed", rank, err)
		}
	}
	if !errors.Is(errs[1], ErrInjected) {
		t.Fatalf("victim error %v should wrap ErrInjected", errs[1])
	}
}
