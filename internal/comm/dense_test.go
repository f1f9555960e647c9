package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/fxrand"
	"repro/internal/testrace"
)

// denseInput is rank's deterministic allreduce input for one iteration;
// serialSum is the reference every transport must match bitwise where it
// reduces in rank order (the hub): 0 + s₀ + s₁ + … per element.
func denseInput(rank, iter, n int) []float32 {
	rng := fxrand.New(uint64(rank)*7919 + uint64(iter)*104729 + 1)
	x := make([]float32, n)
	for i := range x {
		x[i] = rng.NormFloat32()
	}
	return x
}

func serialSum(ranks, iter, n int) []float32 {
	sum := make([]float32, n)
	for rank := 0; rank < ranks; rank++ {
		for i, v := range denseInput(rank, iter, n) {
			sum[i] += v
		}
	}
	return sum
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// allreduceAllocs measures the allocations of one lockstep AllreduceF32 of
// the given length across every handle of a group: rank 0 runs inside
// testing.AllocsPerRun, the others follow it step for step, and the count is
// process-wide — so zero means zero on every rank.
func allreduceAllocs(t *testing.T, group []Collective, length int) float64 {
	t.Helper()
	var wg sync.WaitGroup
	steps := make([]chan struct{}, len(group))
	for rank := 1; rank < len(group); rank++ {
		steps[rank] = make(chan struct{})
		wg.Add(1)
		go func(c Collective, step chan struct{}) {
			defer wg.Done()
			x := make([]float32, length)
			for range step {
				if err := c.AllreduceF32(x); err != nil {
					t.Error(err)
				}
			}
		}(group[rank], steps[rank])
	}
	x := make([]float32, length)
	allocs := testing.AllocsPerRun(50, func() {
		for _, step := range steps[1:] {
			step <- struct{}{}
		}
		if err := group[0].AllreduceF32(x); err != nil {
			t.Error(err)
		}
	})
	for _, step := range steps[1:] {
		close(step)
	}
	wg.Wait()
	return allocs
}

// TestAllreduceSteadyStateAllocs: the dense path allocates nothing once warm
// — no frame buffers on the ring (one element, fewer elements than ranks'
// worth of chunks, a chunk one float longer than the 64 KiB frame buffer, a
// multi-buffer chunk), no rounds or payload copies on the hub.
func TestAllreduceSteadyStateAllocs(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	t.Run("tcp", func(t *testing.T) {
		r0, r1 := dialRingPair(t, time.Minute) // frame deadlines armed, as by default
		for _, length := range []int{1, 3, 2*16384 + 1, 200000} {
			if got := allreduceAllocs(t, []Collective{r0, r1}, length); got != 0 {
				t.Errorf("2-rank ring, %d floats: %v allocs per allreduce, want 0", length, got)
			}
		}
	})
	for _, n := range []int{2, 4} {
		hub := NewHub(n)
		group := make([]Collective, n)
		for rank := range group {
			group[rank] = hub.Worker(rank)
		}
		for _, length := range []int{3, 200000} {
			if got := allreduceAllocs(t, group, length); got != 0 {
				t.Errorf("%d-rank hub, %d floats: %v allocs per allreduce, want 0", n, length, got)
			}
		}
	}
}

// TestHubDenseBitwiseUnderJitter hammers the hub's reused rounds and
// alternating snapshots (run it under -race): 4 ranks, 1000 back-to-back
// allreduces of varying length with per-rank jitter, allgathers interleaved,
// every result bitwise equal to the serial rank-order sum. Then one rank
// poisons a round the others have already deposited snapshots into, the group
// reforms, and the next allreduces — one per snapshot buffer — are exact
// again.
func TestHubDenseBitwiseUnderJitter(t *testing.T) {
	const n, iters = 4, 1000
	hub := NewHub(n)
	hub.SetReformTimeout(10 * time.Second)
	length := func(iter int) int { return (iter * 37) % 301 } // includes 0
	withDeadline(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		for rank := 0; rank < n; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				w := hub.Worker(rank)
				jitter := fxrand.New(uint64(rank) + 99)
				check := func(iter int) bool {
					x := denseInput(rank, iter, length(iter))
					if err := w.AllreduceF32(x); err != nil {
						t.Errorf("rank %d iter %d: %v", rank, iter, err)
						return false
					}
					if !bitsEqual(x, serialSum(n, iter, length(iter))) {
						t.Errorf("rank %d iter %d: allreduce differs from the serial rank-order sum", rank, iter)
						return false
					}
					return true
				}
				for iter := 0; iter < iters; iter++ {
					if jitter.Uint64()%4 == 0 {
						time.Sleep(time.Duration(jitter.Uint64()%50) * time.Microsecond)
					}
					if !check(iter) {
						return
					}
					if iter%3 == 0 {
						all, err := w.AllgatherBytes([]byte{byte(rank), byte(iter)})
						if err != nil {
							t.Errorf("rank %d iter %d allgather: %v", rank, iter, err)
							return
						}
						for peer, b := range all {
							if len(b) != 2 || b[0] != byte(peer) || b[1] != byte(iter) {
								t.Errorf("rank %d iter %d: allgather slot %d = %v", rank, iter, peer, b)
								return
							}
						}
					}
				}
				// The poisoned round: rank 3 aborts once the others are inside.
				if rank == n-1 {
					time.Sleep(5 * time.Millisecond)
					w.Abort(errors.New("test poison"))
				} else if err := w.AllreduceF32(denseInput(rank, iters, 64)); !errors.Is(err, ErrAborted) {
					t.Errorf("rank %d: poisoned allreduce returned %v, want ErrAborted", rank, err)
				}
				if _, err := w.Reform(); err != nil {
					t.Errorf("rank %d reform: %v", rank, err)
					return
				}
				_ = check(iters+1) && check(iters+2)
			}(rank)
		}
		wg.Wait()
	})
}

// TestResilientRestoresAllreduceInputOverRing pins the error contract: x is
// unspecified after a failed AllreduceF32, and Resilient's snapshot is what
// makes its retry sound. Rank 0's first attempt is scribbled over (a Faulty
// corrupt rule, standing in for the partly reduced vector a frame dying
// mid-body leaves behind) and then reset by a second Faulty before it reaches
// the wire — bareColl hides the ring's Close from that reset, because a ring
// whose frames were cut mid-op is desynchronised and only the trainer's heal
// path can bring it back. The retry must start from the caller's input, so
// both ranks end with the exact sums.
func TestResilientRestoresAllreduceInputOverRing(t *testing.T) {
	r0, r1 := dialRingPair(t, -1)
	const length = 2*16384 + 7
	scribble := Plan{Seed: 3, Faults: []Fault{{Kind: FaultCorrupt, Rank: 0, Op: OpAllreduce, FromStep: 2, ToStep: 2}}}
	reset := Plan{Faults: []Fault{{Kind: FaultReset, Rank: 0, Op: OpAllreduce, FromStep: 2, ToStep: 2}}}
	rs := NewResilient(NewFaulty(NewFaulty(&bareColl{inner: r0}, reset), scribble), fastPolicy())
	withDeadline(t, 20*time.Second, func() {
		peer := make(chan error, 1)
		go func() {
			for iter := 0; iter < 3; iter++ {
				y := denseInput(1, iter, length)
				if err := r1.AllreduceF32(y); err != nil {
					peer <- err
					return
				}
				if !bitsEqual(y, serialSum(2, iter, length)) {
					peer <- errors.New("rank 1: wrong sums")
					return
				}
			}
			peer <- nil
		}()
		for iter := 0; iter < 3; iter++ {
			x := denseInput(0, iter, length)
			if err := rs.AllreduceF32(x); err != nil {
				t.Fatalf("rank 0 iter %d: %v", iter, err)
			}
			// Two ranks: each element is one float32 addition, whatever the
			// ring's chunk order.
			if !bitsEqual(x, serialSum(2, iter, length)) {
				t.Fatalf("rank 0 iter %d: sums are not exact after the absorbed fault", iter)
			}
		}
		if err := <-peer; err != nil {
			t.Fatal(err)
		}
	})
	if rs.Retries() != 1 {
		t.Fatalf("%d retries, want the one injected failure absorbed", rs.Retries())
	}
}

// f32Frame builds a frame announcing claim body bytes followed by body.
func f32Frame(claim uint32, body []byte) []byte {
	return append(hostileFrame(claim), body...)
}

func leFloats(vs ...float32) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// TestReadF32Frame: the float-frame reader adds or stores exactly the
// announced chunk, across read-buffer refills and staging pieces, from any
// byte offset in the read buffer, and rejects a frame whose header disagrees
// with the chunk before touching its body. A body cut short is taken up to
// the end of the stream: after any frame error the connection is dead.
func TestReadF32Frame(t *testing.T) {
	big := make([]float32, 5000) // 20 kB through a 4 kB read buffer
	for i := range big {
		big[i] = float32(i) * 0.5
	}
	// An odd-length byte frame first leaves the float body at an offset of 7
	// in the read buffer: the reader must never view those bytes as floats.
	odd := appendFrame(nil, []byte{1, 2, 3})
	misaligned := append(append([]byte(nil), odd...), f32Frame(20000, leFloats(big...))...)
	for _, tc := range []struct {
		name     string
		stream   []byte
		dst      []float32
		add      bool
		want     []float32
		wantErr  error
		consumed int // bytes of stream the reader may have taken
	}{
		{name: "store", stream: f32Frame(8, leFloats(1, 2)), dst: []float32{10, 20}, want: []float32{1, 2}, consumed: 12},
		{name: "add", stream: f32Frame(8, leFloats(1, 2)), dst: []float32{10, 20}, add: true, want: []float32{11, 22}, consumed: 12},
		{name: "empty chunk", stream: f32Frame(0, nil), dst: nil, want: nil, consumed: 4},
		{name: "multi-buffer", stream: f32Frame(20000, leFloats(big...)), dst: make([]float32, 5000), want: big, consumed: 20004},
		{name: "multi-buffer add", stream: f32Frame(20000, leFloats(big...)), dst: make([]float32, 5000), add: true, want: big, consumed: 20004},
		{name: "misaligned store", stream: misaligned, dst: make([]float32, 5000), want: big, consumed: 20011},
		{name: "misaligned add", stream: misaligned, dst: make([]float32, 5000), add: true, want: big, consumed: 20011},
		{name: "short header", stream: []byte{8, 0}, dst: []float32{0, 0}, wantErr: io.EOF, consumed: 0},
		{name: "length mismatch", stream: f32Frame(12, leFloats(1, 2, 3)), dst: []float32{0, 0}, wantErr: ErrCorrupt, consumed: 4},
		{name: "oversized", stream: f32Frame(1<<31, nil), dst: []float32{0, 0}, wantErr: ErrFrameTooLarge, consumed: 4},
		{name: "truncated body", stream: f32Frame(8, leFloats(1)[:3]), dst: []float32{0, 0}, wantErr: io.ErrUnexpectedEOF, consumed: 7},
		{name: "truncated mid-float", stream: f32Frame(8, append(leFloats(1), 9, 9)), dst: []float32{0, 0}, wantErr: io.ErrUnexpectedEOF, consumed: 10},
		{name: "truncated add", stream: f32Frame(8, leFloats(1)), dst: []float32{0, 0}, add: true, wantErr: io.ErrUnexpectedEOF, consumed: 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := bytes.NewReader(tc.stream)
			r := bufio.NewReaderSize(src, 4096)
			if bytes.HasPrefix(tc.stream, odd) {
				if b, err := readFrame(r, 1<<20); err != nil || len(b) != 3 {
					t.Fatalf("leading byte frame: %v, %v", b, err)
				}
			}
			var stage []float32
			if tc.add {
				stage = make([]float32, 1000) // 5 pieces for the big chunk
			}
			err := readF32Frame(r, 1<<20, tc.dst, stage)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if err == nil && !bitsEqual(tc.dst, tc.want) {
				t.Fatalf("dst = %v, want %v", tc.dst, tc.want)
			}
			if got := len(tc.stream) - src.Len() - r.Buffered(); got != tc.consumed {
				t.Fatalf("reader consumed %d bytes of the stream, want %d", got, tc.consumed)
			}
		})
	}
}

// TestTCPRingHostileAllreduceFrames: a neighbor that answers an allreduce
// with a frame of the wrong length, an absurd length, or a body cut short
// fails the op with a typed *Error{Op: OpAllreduce} — no hang, no read past
// the header of a frame that does not fit the chunk.
func TestTCPRingHostileAllreduceFrames(t *testing.T) {
	for _, tc := range []struct {
		name    string
		reply   []byte
		wantErr error
	}{
		{"length mismatch", f32Frame(12, leFloats(1, 2, 3)), ErrCorrupt},
		{"oversized", f32Frame(1<<31, nil), ErrFrameTooLarge},
		{"truncated body", f32Frame(16, leFloats(1)), io.ErrUnexpectedEOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lns, addrs := bindAddrs(t, 2)
			withDeadline(t, 20*time.Second, func() {
				// The hostile rank 1 plays the ring setup honestly, then
				// answers the allreduce with its frame.
				go func() {
					toRing, fromRing, conns, err := fakeRankSetup(lns[1], 1, addrs, false)
					defer func() {
						for _, c := range conns {
							c.Close()
						}
					}()
					if err != nil {
						t.Error(err)
						return
					}
					toRing.Write(tc.reply)
					toRing.(*net.TCPConn).CloseWrite() // nothing more is coming
					io.Copy(io.Discard, fromRing)      // until the ring gives up and closes
				}()
				ring, err := DialTCPRingConfig(RingConfig{Rank: 0, Addrs: addrs, Listener: lns[0], SetupTimeout: 5 * time.Second, OpTimeout: 5 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				// 8 floats over 2 ranks: rank 0 expects a 16-byte chunk.
				err = ring.AllreduceF32(make([]float32, 8))
				ring.Close()
				var ce *Error
				if !errors.Is(err, tc.wantErr) || !errors.As(err, &ce) || ce.Op != OpAllreduce || ce.Rank != 0 {
					t.Fatalf("err = %v, want a typed rank-0 allreduce error wrapping %v", err, tc.wantErr)
				}
			})
		})
	}
}
