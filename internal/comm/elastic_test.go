package comm

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestHubElasticShrink: rank 1 of 3 dies permanently; the survivors'
// ReformElastic commits world size 2 with a deterministic remap, collectives
// keep working at the new size, and the dead rank's handle is evicted.
func TestHubElasticShrink(t *testing.T) {
	hub := NewHub(3)
	w0, w1, w2 := hub.Worker(0), hub.Worker(1), hub.Worker(2)
	hub.Abort(fmt.Errorf("supervisor: rank 1 died: %w", ErrPeerDead))

	var wg sync.WaitGroup
	mems := make([]Membership, 3)
	errs := make([]error, 3)
	for i, w := range []*InProc{w0, w2} {
		wg.Add(1)
		go func(i int, w *InProc) {
			defer wg.Done()
			mems[i], errs[i] = w.ReformElastic(100 * time.Millisecond)
		}(i*2, w)
	}
	wg.Wait()
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("survivor %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(mems[i].Members, []int{0, 2}) {
			t.Fatalf("survivor %d members = %v, want [0 2]", i, mems[i].Members)
		}
		if !reflect.DeepEqual(mems[i].Lost, []int{1}) {
			t.Fatalf("survivor %d lost = %v, want [1]", i, mems[i].Lost)
		}
	}
	if mems[0].Rank != 0 || mems[2].Rank != 1 {
		t.Fatalf("remap = %d,%d, want 0,1", mems[0].Rank, mems[2].Rank)
	}
	if w0.Size() != 2 || w2.Rank() != 1 || w2.OriginalRank() != 2 {
		t.Fatalf("post-shrink view: size %d, w2 rank %d (orig %d)", w0.Size(), w2.Rank(), w2.OriginalRank())
	}

	// Collectives work at the new size with the new denominators.
	var sum0, sum2 []float32
	wg.Add(2)
	go func() { defer wg.Done(); sum0 = []float32{1}; errs[0] = w0.AllreduceF32(sum0) }()
	go func() { defer wg.Done(); sum2 = []float32{2}; errs[2] = w2.AllreduceF32(sum2) }()
	wg.Wait()
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("post-shrink allreduce: %v / %v", errs[0], errs[2])
	}
	if sum0[0] != 3 || sum2[0] != 3 {
		t.Fatalf("post-shrink sum = %v/%v, want 3", sum0[0], sum2[0])
	}

	// The evicted rank fails fatally, on collectives and reforms alike.
	if err := w1.Barrier(); !errors.Is(err, ErrEvicted) {
		t.Fatalf("evicted barrier err = %v, want ErrEvicted", err)
	}
	if _, err := w1.Reform(); !errors.Is(err, ErrEvicted) {
		t.Fatalf("evicted reform err = %v, want ErrEvicted", err)
	}
	if IsTransient(fmt.Errorf("wrapped: %w", ErrEvicted)) {
		t.Fatal("ErrEvicted must classify as fatal")
	}
}

// TestHubElasticReformIntact: all members arrive within the deadline, so the
// elastic reform behaves exactly like a legacy reform — nobody shrinks.
func TestHubElasticReformIntact(t *testing.T) {
	hub := NewHub(2)
	hub.Abort(ErrPeerDead)
	var wg sync.WaitGroup
	mems := make([]Membership, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mems[i], errs[i] = hub.Worker(i).ReformElastic(5 * time.Second)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("rank %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(mems[i].Members, []int{0, 1}) || len(mems[i].Lost) != 0 {
			t.Fatalf("rank %d membership = %+v, want intact", i, mems[i])
		}
	}
}

// TestHubElasticGrow: after a shrink, a fresh worker registers, the members
// absorb it via ReformGrow, and the group is back at full size with original
// indices restored.
func TestHubElasticGrow(t *testing.T) {
	hub := NewHub(3)
	w0, w2 := hub.Worker(0), hub.Worker(2)
	hub.Abort(ErrPeerDead)
	var wg sync.WaitGroup
	for _, w := range []*InProc{w0, w2} {
		wg.Add(1)
		go func(w *InProc) { defer wg.Done(); w.ReformElastic(50 * time.Millisecond) }(w)
	}
	wg.Wait()

	j, err := hub.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := w0.PendingJoins(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("pending = %v, want [1]", got)
	}
	target := []int{0, 1, 2}
	mems := make([]Membership, 3)
	errs := make([]error, 3)
	wg.Add(3)
	go func() { defer wg.Done(); mems[0], errs[0] = w0.ReformGrow(target) }()
	go func() { defer wg.Done(); mems[2], errs[2] = w2.ReformGrow(target) }()
	go func() { defer wg.Done(); mems[1], errs[1] = j.JoinGroup(5 * time.Second) }()
	wg.Wait()
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("rank %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(mems[i].Members, []int{0, 1, 2}) {
			t.Fatalf("rank %d members = %v, want [0 1 2]", i, mems[i].Members)
		}
		if mems[i].Rank != i {
			t.Fatalf("rank %d current index = %d", i, mems[i].Rank)
		}
	}

	// The regrown group's collectives span all three again.
	sums := make([][]float32, 3)
	wg.Add(3)
	for i, w := range []*InProc{w0, j, w2} {
		go func(i int, w *InProc) {
			defer wg.Done()
			sums[i] = []float32{float32(i + 1)}
			errs[i] = w.AllreduceF32(sums[i])
		}(i, w)
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("rank %d: %v", i, errs[i])
		}
		if sums[i][0] != 6 {
			t.Fatalf("rank %d sum = %v, want 6", i, sums[i][0])
		}
	}
}

// TestHubLegacyReformTimeoutUnchanged: the legacy Reform keeps its strict
// semantics — a missing rank times the rendezvous out with ErrPeerDead, no
// shrink happens, and the hub stays poisoned.
func TestHubLegacyReformTimeoutUnchanged(t *testing.T) {
	hub := NewHub(2)
	hub.SetReformTimeout(50 * time.Millisecond)
	hub.Abort(ErrPeerDead)
	_, err := hub.Worker(0).Reform()
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("err = %v, want ErrPeerDead", err)
	}
	if hub.size() != 2 {
		t.Fatalf("legacy timeout shrank the hub to %d", hub.size())
	}
}

// TestMembersCodecRoundTrip covers the wire codec the join handshake uses.
func TestMembersCodecRoundTrip(t *testing.T) {
	for _, members := range [][]int{{0}, {0, 1, 2}, {1, 5, 4095}} {
		got, err := decodeMembers(encodeMembers(members))
		if err != nil {
			t.Fatalf("%v: %v", members, err)
		}
		if !reflect.DeepEqual(got, members) {
			t.Fatalf("round trip %v -> %v", members, got)
		}
	}
	for name, b := range map[string][]byte{
		"short header": {1, 2},
		"zero count":   encodeMembers(nil),
		"truncated":    encodeMembers([]int{0, 1})[:7],
		"unsorted":     {0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 3},
		"huge count":   {0, 1, 0, 0},
	} {
		if _, err := decodeMembers(b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if membershipDigest([]int{0, 1, 2}) == membershipDigest([]int{0, 2}) {
		t.Fatal("digest collision between different member sets")
	}
	if membershipDigest(nil) == 0 {
		t.Fatal("digest must be nonzero")
	}
}

// TestTCPRingShrinkAndGrow drives the full TCP elastic lifecycle on
// loopback: 3 ranks form, rank 1 is killed (machine loss), the survivors
// shrink to 2 and allreduce at the new size; then a fresh worker joins and a
// grow restores world size 3.
func TestTCPRingShrinkAndGrow(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback ring lifecycle")
	}
	lns, socks, addrs := holdAddrs(t, 3)
	// The test holds every rank's socket (holdAddrs): the joiner serves the
	// socket killed rank 1 served. While rank 1 is down its port stays bound
	// and silent, so the survivors' census counts it lost at the probe
	// deadline rather than on a refusal.
	cfg := func(rank int, ln net.Listener) RingConfig {
		return RingConfig{
			Rank: rank, Addrs: addrs, Listener: ln,
			SetupTimeout: 20 * time.Second,
			OpTimeout:    10 * time.Second,
			Heartbeat:    25 * time.Millisecond,
			Seed:         7,
		}
	}
	rings := make([]*TCPRing, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rings[i], errs[i] = DialTCPRingConfig(cfg(i, lns[i]))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("dial rank %d: %v", i, err)
		}
	}
	defer func() {
		for _, r := range rings {
			if r != nil {
				r.Kill()
			}
		}
	}()

	// Machine loss: rank 1's sockets, listener, and acceptor all vanish.
	rings[1].Kill()

	mems := make([]Membership, 3)
	wg.Add(2)
	for _, i := range []int{0, 2} {
		go func(i int) {
			defer wg.Done()
			mems[i], errs[i] = rings[i].ReformElastic(500 * time.Millisecond)
		}(i)
	}
	wg.Wait()
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("survivor %d shrink: %v", i, errs[i])
		}
		if !reflect.DeepEqual(mems[i].Members, []int{0, 2}) {
			t.Fatalf("survivor %d members = %v, want [0 2]", i, mems[i].Members)
		}
	}
	if rings[0].Rank() != 0 || rings[2].Rank() != 1 || rings[2].Size() != 2 {
		t.Fatalf("post-shrink view: rank0=%d rank2=%d size=%d",
			rings[0].Rank(), rings[2].Rank(), rings[2].Size())
	}
	sums := map[int][]float32{0: {1}, 2: {2}}
	wg.Add(2)
	for _, i := range []int{0, 2} {
		go func(i int) { defer wg.Done(); errs[i] = rings[i].AllreduceF32(sums[i]) }(i)
	}
	wg.Wait()
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("post-shrink allreduce: %v / %v", errs[0], errs[2])
	}
	if sums[0][0] != 3 || sums[2][0] != 3 {
		t.Fatalf("post-shrink sums = %v/%v, want 3", sums[0][0], sums[2][0])
	}

	// Grow back: a fresh incarnation of rank 1 joins. Its request lands on
	// one member's join point; in training the step-boundary beacon
	// unions the pending sets across ranks, so here rank 0 waits for the
	// request and hands rank 2 the agreed absorb set out-of-band.
	var joined *TCPRing
	var joinErr error
	agreed := make(chan []int, 1)
	joiner := cfg(1, listenerOf(t, socks[1]))
	wg.Add(3)
	go func() {
		defer wg.Done()
		joined, joinErr = JoinTCPRing(joiner, 20*time.Second)
	}()
	go func() {
		defer wg.Done()
		for len(rings[0].PendingJoins()) == 0 {
			time.Sleep(10 * time.Millisecond)
		}
		target := sortedUnion([]int{0, 2}, rings[0].PendingJoins())
		agreed <- target
		mems[0], errs[0] = rings[0].ReformGrow(target)
	}()
	go func() {
		defer wg.Done()
		mems[2], errs[2] = rings[2].ReformGrow(<-agreed)
	}()
	wg.Wait()
	if joinErr != nil {
		t.Fatalf("join: %v", joinErr)
	}
	rings[1] = joined
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("survivor %d grow: %v", i, errs[i])
		}
	}
	for i, r := range rings {
		if r.Size() != 3 || r.Rank() != i {
			t.Fatalf("post-grow rank %d: size=%d rank=%d", i, r.Size(), r.Rank())
		}
	}
	sums3 := [][]float32{{1}, {2}, {3}}
	wg.Add(3)
	for i := range rings {
		go func(i int) { defer wg.Done(); errs[i] = rings[i].AllreduceF32(sums3[i]) }(i)
	}
	wg.Wait()
	for i := range rings {
		if errs[i] != nil {
			t.Fatalf("post-grow allreduce rank %d: %v", i, errs[i])
		}
		if sums3[i][0] != 6 {
			t.Fatalf("post-grow sum rank %d = %v, want 6", i, sums3[i][0])
		}
	}
}
