package comm

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Hub coordinates an in-process collective group: worker goroutines in one
// address space, synchronizing through a sequence of immutable round objects.
// This is the default substrate for distributed-training experiments — it
// gives real concurrency and real synchronization semantics without network
// overhead, so computation costs can be measured while transfer time is
// modeled separately (see internal/simnet).
//
// A Hub can be aborted: Abort poisons the group so every worker blocked in —
// or later entering — a collective returns a typed *Error wrapping ErrAborted
// instead of waiting forever for peers that will never arrive. This is what
// keeps chaos tests (a rank dropping out mid-allreduce) deadlock-free.
//
// A Hub is also elastic (see Elastic): the group can vote to reform at a
// smaller world size when a member misses the rejoin deadline, and absorb
// registered joiners back later. Workers keep their original rank for life;
// collectives address them by their current index in the sorted member set.
type Hub struct {
	world    int // original group size; handed-out original ranks live below it
	mu       sync.Mutex
	members  []int // sorted original ranks currently in the group
	lost     []int // original ranks evicted by the most recent elastic shrink
	cur      *round
	spare    *round        // the previous round; becomes cur again at the next completion
	aborted  chan struct{} // closed on Abort
	abortErr error
	gen      uint64      // group generation, bumped by each reform
	ref      *reformSync // in-progress reform rendezvous, nil between reforms
	pending  map[int]*joinWait
	reformTO time.Duration
}

// reformSync is one reform rendezvous: the final arrival — or, in an elastic
// shrink, the first deadline expiry — heals the hub, publishes the new
// membership, and wakes the rest.
type reformSync struct {
	arrived map[int]bool
	grow    []int      // non-nil marks a grow rendezvous: the agreed absorb set
	mem     Membership // valid once done is closed; Rank is -1 (per-caller)
	done    chan struct{}
}

// joinWait parks one registered joiner until a grow absorbs it.
type joinWait struct {
	mem  Membership // valid once done is closed; Rank is -1
	done chan struct{}
}

// round is one rendezvous: every rank deposits a byte payload (slots) or, for
// an allreduce, a snapshot of its vector (f32), and reads the others' once
// the round completes. The hub alternates between two rounds and allocates
// none in steady state. That is safe because a rank deposits into round r+1
// only after it has finished reading round r: when the last deposit of r+1
// arrives, round r has no reader left and can be cleared for r+2. Completion
// is signalled by one token per waiting rank on done, which for the same
// reason are all consumed before the round is entered again.
type round struct {
	slots [][]byte
	f32   [][]float32
	count int
	done  chan struct{} // cap n-1: one token per rank that waited
}

// NewHub creates a hub for n workers.
func NewHub(n int) *Hub {
	if n <= 0 {
		panic("comm: hub size must be positive")
	}
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	return &Hub{
		world:    n,
		members:  members,
		cur:      newRound(n),
		spare:    newRound(n),
		aborted:  make(chan struct{}),
		pending:  make(map[int]*joinWait),
		reformTO: DefaultReformTimeout,
	}
}

// DefaultReformTimeout bounds how long a reform rendezvous waits for the
// group: long enough to cover a supervisor respawning a dead rank.
const DefaultReformTimeout = 60 * time.Second

// SetReformTimeout overrides how long reform waits for all workers to arrive
// (tests shrink it; rejoin batteries stretch it past the respawn delay).
func (h *Hub) SetReformTimeout(d time.Duration) {
	h.mu.Lock()
	h.reformTO = d
	h.mu.Unlock()
}

// Generation reports the hub's current group generation.
func (h *Hub) Generation() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gen
}

// size reports the current world size.
func (h *Hub) size() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.members)
}

// currentRank maps an original rank to its index in the member set (-1 when
// evicted or still pending).
func (h *Hub) currentRank(orig int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return indexOf(h.members, orig)
}

// membership snapshots the current configuration addressed to orig.
func (h *Hub) membership(orig int) Membership {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Membership{
		Gen:     h.gen,
		Members: append([]int(nil), h.members...),
		Rank:    indexOf(h.members, orig),
		Lost:    append([]int(nil), h.lost...),
	}
}

// rendezvous is the reform meeting point shared by all three recovery paths.
// Legacy reform (shrinkOK=false, grow=nil) waits for the full membership and
// fails with ErrPeerDead on timeout; an elastic shrink (shrinkOK=true) lets
// the first rank whose deadline expires commit the arrived set as the new,
// smaller membership, evicting the rest; a grow (grow != nil) is a full
// rendezvous whose commit also absorbs the agreed joiners. Every commit
// clears the abort poison, installs a fresh round sized to the new
// membership, and bumps the generation. No rank may be inside a collective
// when its rendezvous runs (reform occupies a slot in the lockstep op
// sequence, after all ranks failed out of the same op), so replacing the
// round is race-free.
func (h *Hub) rendezvous(orig int, wait time.Duration, shrinkOK bool, grow []int) (Membership, error) {
	h.mu.Lock()
	if indexOf(h.members, orig) < 0 {
		h.mu.Unlock()
		return Membership{}, fmt.Errorf("rank %d: %w", orig, ErrEvicted)
	}
	if h.ref == nil {
		h.ref = &reformSync{arrived: make(map[int]bool), grow: grow, done: make(chan struct{})}
	}
	rs := h.ref
	if (rs.grow == nil) != (grow == nil) || (grow != nil && !equalInts(rs.grow, grow)) {
		h.mu.Unlock()
		return Membership{}, fmt.Errorf("comm: reform rendezvous mixed shapes: grow %v vs %v", grow, rs.grow)
	}
	rs.arrived[orig] = true
	if len(rs.arrived) == len(h.members) {
		mem := h.commitLocked(rs, h.members, nil)
		h.mu.Unlock()
		telemetry.Default.Add(telemetry.CtrGroupReforms, 1)
		if grow != nil && mem.Size() > len(rs.arrived) {
			telemetry.Default.Add(telemetry.CtrElasticGrows, 1)
		}
		return mem, nil
	}
	h.mu.Unlock()
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-rs.done:
		return rs.mem, nil
	case <-t.C:
		h.mu.Lock()
		if h.ref != rs {
			// Another rank committed between our timer firing and the lock;
			// the rendezvous result is valid and includes us.
			h.mu.Unlock()
			<-rs.done
			return rs.mem, nil
		}
		arrived := len(rs.arrived)
		if !shrinkOK {
			// The slot stays consumed: the group must be rebuilt (legacy
			// reform) or retried by the caller (grow).
			n := len(h.members)
			h.mu.Unlock()
			return Membership{}, fmt.Errorf("reform rendezvous: %d of %d workers after %v: %w",
				arrived, n, wait, ErrPeerDead)
		}
		// Elastic shrink: the deadline has passed and the vote is the set of
		// ranks that showed up. Commit them as the new membership; the
		// missing ranks are evicted.
		survivors := make([]int, 0, arrived)
		for r := range rs.arrived {
			survivors = append(survivors, r)
		}
		sort.Ints(survivors)
		var lost []int
		for _, m := range h.members {
			if !rs.arrived[m] {
				lost = append(lost, m)
			}
		}
		mem := h.commitLocked(rs, survivors, lost)
		h.mu.Unlock()
		telemetry.Default.Add(telemetry.CtrGroupReforms, 1)
		telemetry.Default.Add(telemetry.CtrElasticShrinks, 1)
		return mem, nil
	}
}

// commitLocked installs a new group configuration and wakes the rendezvous.
// Caller holds h.mu. members must be sorted; a grow rendezvous absorbs its
// registered joiners here so the membership change is one atomic commit.
func (h *Hub) commitLocked(rs *reformSync, members, lost []int) Membership {
	members = append([]int(nil), members...)
	var woken []*joinWait
	if rs.grow != nil {
		for _, r := range rs.grow {
			jw, ok := h.pending[r]
			if !ok || indexOf(members, r) >= 0 {
				continue
			}
			members = sortedUnion(members, []int{r})
			woken = append(woken, jw)
			delete(h.pending, r)
			if r >= h.world {
				h.world = r + 1
			}
		}
	}
	h.members = members
	h.lost = append([]int(nil), lost...)
	h.aborted = make(chan struct{})
	h.abortErr = nil
	h.cur, h.spare = newRound(len(members)), newRound(len(members))
	h.gen++
	rs.mem = Membership{Gen: h.gen, Members: members, Rank: -1, Lost: h.lost}
	h.ref = nil
	close(rs.done)
	for _, jw := range woken {
		jw.mem = Membership{Gen: h.gen, Members: members, Rank: -1}
		close(jw.done)
	}
	return rs.mem
}

// reform is the legacy all-workers recovery rendezvous: once every member of
// the group has arrived, the abort poison is cleared, a fresh round is
// installed, and the group generation advances. A rank that waits longer
// than the reform timeout gives up with a typed error; its rendezvous slot
// stays consumed, so the group must be rebuilt by the supervisor at that
// point.
func (h *Hub) reform(orig int) (uint64, error) {
	h.mu.Lock()
	to := h.reformTO
	h.mu.Unlock()
	mem, err := h.rendezvous(orig, to, false, nil)
	if err != nil {
		return 0, err
	}
	return mem.Gen, nil
}

func newRound(n int) *round {
	return &round{slots: make([][]byte, n), f32: make([][]float32, n), done: make(chan struct{}, n-1)}
}

// Worker returns the collective handle for the given original rank.
func (h *Hub) Worker(rank int) *InProc {
	if rank < 0 || rank >= h.world {
		panic(fmt.Sprintf("comm: rank %d out of [0,%d)", rank, h.world))
	}
	return &InProc{hub: h, rank: rank}
}

// Join registers a fresh worker with the given original rank as a pending
// joiner and returns its handle. The handle's JoinGroup blocks until the
// current members absorb it via ReformGrow; collectives fail with ErrEvicted
// until then.
func (h *Hub) Join(rank int) (*InProc, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if rank < 0 {
		return nil, fmt.Errorf("comm: join rank %d negative", rank)
	}
	if indexOf(h.members, rank) >= 0 {
		return nil, fmt.Errorf("comm: join rank %d is already a member", rank)
	}
	if _, ok := h.pending[rank]; ok {
		return nil, fmt.Errorf("comm: join rank %d is already pending", rank)
	}
	jw := &joinWait{done: make(chan struct{})}
	h.pending[rank] = jw
	return &InProc{hub: h, rank: rank, join: jw}, nil
}

// pendingJoins reports registered joiners, sorted.
func (h *Hub) pendingJoins() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, 0, len(h.pending))
	for r := range h.pending {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Abort poisons the hub: every worker currently blocked in a round and every
// future collective call fails with an error wrapping ErrAborted (and cause,
// when non-nil). Abort is idempotent; the first cause wins.
func (h *Hub) Abort(cause error) {
	h.mu.Lock()
	select {
	case <-h.aborted:
	default:
		h.abortErr = cause
		close(h.aborted)
	}
	h.mu.Unlock()
}

// abortedErr reports the abort cause wrapped in ErrAborted, or nil when the
// hub is healthy. Callers must hold no locks.
func (h *Hub) abortedErr() error {
	select {
	case <-h.aborted:
	default:
		return nil
	}
	h.mu.Lock()
	cause := h.abortErr
	h.mu.Unlock()
	if cause != nil {
		return fmt.Errorf("%w: %w", ErrAborted, cause)
	}
	return ErrAborted
}

// exchange deposits this worker's payload — bytes, or an allreduce snapshot
// — and returns the completed round, whose slots are in current-rank order.
// A round's slots are written only before it completes and read only after,
// so rounds are race-free; the last depositor makes the other round current
// before waking the rest, letting fast workers proceed to the next operation
// immediately. An aborted hub fails the exchange instead of blocking on peers
// that will never deposit, and a worker the group has moved on without fails
// with ErrEvicted.
//
// Though no packet leaves the process, the deposited payload is accounted as
// wire traffic in the telemetry registry: the hub substitutes for a network,
// so its "wire" volume is what a real transport would have carried.
func (h *Hub) exchange(orig int, payload []byte, snap []float32) (*round, error) {
	if err := h.abortedErr(); err != nil {
		return nil, err
	}
	telemetry.Default.Add(telemetry.CtrCollectiveOps, 1)
	telemetry.Default.Add(telemetry.CtrWireBytesSent, int64(len(payload)+4*len(snap)))
	h.mu.Lock()
	idx := indexOf(h.members, orig)
	if idx < 0 {
		h.mu.Unlock()
		return nil, fmt.Errorf("rank %d: %w", orig, ErrEvicted)
	}
	r := h.cur
	r.slots[idx], r.f32[idx] = payload, snap
	r.count++
	last := r.count == len(r.slots)
	if last {
		clear(h.spare.slots)
		clear(h.spare.f32)
		h.spare.count = 0
		h.cur, h.spare = h.spare, r
		for i := 1; i < len(r.slots); i++ {
			r.done <- struct{}{}
		}
	}
	aborted := h.aborted
	h.mu.Unlock()
	if !last {
		select {
		case <-r.done:
		case <-aborted:
			// The round may still complete concurrently, but once the group is
			// poisoned no result can be trusted; fail deterministically.
			return nil, h.abortedErr()
		}
	}
	var recv int64
	for i := range r.slots {
		if i != idx {
			recv += int64(len(r.slots[i]) + 4*len(r.f32[i]))
		}
	}
	telemetry.Default.Add(telemetry.CtrWireBytesRecv, recv)
	return r, nil
}

// InProc is one worker's handle onto a Hub. rank is the worker's original,
// lifetime identity; Rank() reports its current index in the member set.
type InProc struct {
	hub  *Hub
	rank int
	join *joinWait // non-nil until a pending joiner is absorbed
	step int64
	// snaps are the buffers AllreduceF32 deposits its input in; snap indexes
	// the next one and flips after each completed allreduce. Peers read the
	// snapshot of allreduce k only until they deposit into a later round,
	// which all of them have done once this worker's allreduce k+1 completes
	// — so when k+2 overwrites k's buffer, nobody is reading it.
	snaps [2][]float32
	snap  int
}

var _ Collective = (*InProc)(nil)
var _ Elastic = (*InProc)(nil)
var _ Joiner = (*InProc)(nil)

// Rank returns this worker's current rank: its index in the sorted member
// set (equal to the original rank while the group is intact, -1 while
// evicted or pending).
func (w *InProc) Rank() int { return w.hub.currentRank(w.rank) }

// OriginalRank returns the worker's lifetime identity, stable across elastic
// membership changes.
func (w *InProc) OriginalRank() int { return w.rank }

// Size returns the current group size.
func (w *InProc) Size() int { return w.hub.size() }

// Abort poisons the whole group this handle belongs to (see Hub.Abort).
func (w *InProc) Abort(cause error) { w.hub.Abort(cause) }

// Reform joins the hub's recovery rendezvous (see Hub.reform): it blocks
// until every member of the group — including a freshly respawned one —
// calls Reform, then returns the new group generation with the abort poison
// cleared.
func (w *InProc) Reform() (uint64, error) {
	gen, err := w.hub.reform(w.rank)
	if err != nil {
		return 0, wrapErr(w.rank, OpReform, w.step, err)
	}
	telemetry.Default.SetGeneration(gen)
	telemetry.Default.RecordFault(w.rank, telemetry.OpReform, w.step, telemetry.FaultReform, 0)
	return gen, nil
}

// opsFailTogether marks the hub as group-atomic: an op either completes the
// rendezvous for every rank or fails on every rank.
func (w *InProc) opsFailTogether() {}

// ReformElastic joins the elastic recovery rendezvous: the full membership
// reforms intact when everyone arrives within wait; otherwise the arrived
// ranks commit a smaller world size and the missing ranks are evicted.
func (w *InProc) ReformElastic(wait time.Duration) (Membership, error) {
	mem, err := w.hub.rendezvous(w.rank, wait, true, nil)
	if err != nil {
		return Membership{}, wrapErr(w.rank, OpReform, w.step, err)
	}
	mem.Rank = mem.CurrentRank(w.rank)
	telemetry.Default.SetGeneration(mem.Gen)
	telemetry.Default.SetGauge("world_size", int64(mem.Size()))
	telemetry.Default.RecordFault(w.rank, telemetry.OpReform, w.step, telemetry.FaultReform, 0)
	return mem, nil
}

// ReformGrow rebuilds the group absorbing the agreed joiners (see Elastic).
func (w *InProc) ReformGrow(members []int) (Membership, error) {
	w.hub.mu.Lock()
	to := w.hub.reformTO
	w.hub.mu.Unlock()
	mem, err := w.hub.rendezvous(w.rank, to, false, append([]int(nil), members...))
	if err != nil {
		return Membership{}, wrapErr(w.rank, OpReform, w.step, err)
	}
	mem.Rank = mem.CurrentRank(w.rank)
	telemetry.Default.SetGeneration(mem.Gen)
	telemetry.Default.SetGauge("world_size", int64(mem.Size()))
	telemetry.Default.RecordFault(w.rank, telemetry.OpReform, w.step, telemetry.FaultReform, 0)
	return mem, nil
}

// PendingJoins reports workers registered via Hub.Join and not yet absorbed.
func (w *InProc) PendingJoins() []int { return w.hub.pendingJoins() }

// Membership reports the group's current configuration from this worker's
// perspective.
func (w *InProc) Membership() Membership { return w.hub.membership(w.rank) }

// JoinGroup blocks until the members absorb this pending joiner via
// ReformGrow (see Joiner). On a handle that is already a member it returns
// the current membership immediately.
func (w *InProc) JoinGroup(wait time.Duration) (Membership, error) {
	jw := w.join
	if jw == nil {
		mem := w.hub.membership(w.rank)
		if mem.Rank < 0 {
			return Membership{}, wrapErr(w.rank, OpReform, w.step, fmt.Errorf("rank %d: %w", w.rank, ErrEvicted))
		}
		return mem, nil
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-jw.done:
		w.join = nil
		mem := jw.mem
		mem.Rank = mem.CurrentRank(w.rank)
		telemetry.Default.SetGeneration(mem.Gen)
		return mem, nil
	case <-t.C:
		return Membership{}, wrapErr(w.rank, OpReform, w.step,
			fmt.Errorf("join rendezvous: not absorbed after %v", wait))
	}
}

// AllreduceF32 sums x across workers in place. Every worker reduces the
// deposited snapshots in rank order (0 + s₀ + s₁ + …), so results are bitwise
// identical everywhere.
func (w *InProc) AllreduceF32(x []float32) error {
	w.step++
	snap := append(w.snaps[w.snap][:0], x...)
	w.snaps[w.snap] = snap
	opT0 := telemetry.Default.Start()
	r, err := w.hub.exchange(w.rank, nil, snap)
	telemetry.Default.RecordOp(w.rank, telemetry.OpAllreduce, w.step, int64(4*len(x)), opT0)
	if err != nil {
		return wrapErr(w.rank, OpAllreduce, w.step, err)
	}
	w.snap ^= 1
	for _, other := range r.f32 {
		if len(other) != len(x) {
			return wrapErr(w.rank, OpAllreduce, w.step,
				fmt.Errorf("allreduce length mismatch: %d vs %d", len(other), len(x)))
		}
	}
	clear(x)
	for _, other := range r.f32 {
		tensor.Axpy(1, other, x) // 1·v is exactly v: the same adds, bit for bit
	}
	return nil
}

// AllgatherBytes distributes every worker's payload to all workers.
func (w *InProc) AllgatherBytes(b []byte) ([][]byte, error) {
	w.step++
	opT0 := telemetry.Default.Start()
	r, err := w.hub.exchange(w.rank, b, nil)
	telemetry.Default.RecordOp(w.rank, telemetry.OpAllgather, w.step, int64(len(b)), opT0)
	if err != nil {
		return nil, wrapErr(w.rank, OpAllgather, w.step, err)
	}
	return append([][]byte(nil), r.slots...), nil
}

// BroadcastBytes distributes root's payload. root is a current rank.
func (w *InProc) BroadcastBytes(b []byte, root int) ([]byte, error) {
	w.step++
	cur := w.hub.currentRank(w.rank)
	if cur < 0 {
		return nil, wrapErr(w.rank, OpBroadcast, w.step, fmt.Errorf("rank %d: %w", w.rank, ErrEvicted))
	}
	if root < 0 || root >= w.hub.size() {
		return nil, wrapErr(w.rank, OpBroadcast, w.step, fmt.Errorf("broadcast root %d out of range", root))
	}
	var payload []byte
	if cur == root {
		payload = b
	}
	opT0 := telemetry.Default.Start()
	r, err := w.hub.exchange(w.rank, payload, nil)
	telemetry.Default.RecordOp(w.rank, telemetry.OpBroadcast, w.step, int64(len(payload)), opT0)
	if err != nil {
		return nil, wrapErr(w.rank, OpBroadcast, w.step, err)
	}
	return r.slots[root], nil
}

// Barrier blocks until all workers arrive.
func (w *InProc) Barrier() error {
	w.step++
	opT0 := telemetry.Default.Start()
	_, err := w.hub.exchange(w.rank, nil, nil)
	telemetry.Default.RecordOp(w.rank, telemetry.OpBarrier, w.step, 0, opT0)
	if err != nil {
		return wrapErr(w.rank, OpBarrier, w.step, err)
	}
	return nil
}

// equalInts reports element-wise equality.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
