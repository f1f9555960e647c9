package comm

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Transport hardening defaults. Production gradients are large but bounded;
// a frame header claiming more than MaxFrameBytes is treated as corruption —
// the body is rejected before any allocation happens.
const (
	// DefaultMaxFrameBytes bounds a single ring frame (256 MiB).
	DefaultMaxFrameBytes = 256 << 20
	// DefaultOpTimeout bounds each frame read/write on the wire. A peer that
	// stalls longer than this mid-collective surfaces a timeout error instead
	// of hanging the group forever.
	DefaultOpTimeout = 2 * time.Minute
	// heartbeatMisses is how many consecutive silent heartbeat intervals
	// declare a neighbor dead.
	heartbeatMisses = 3
)

// RingConfig tunes the hardened TCP ring transport beyond the required rank
// and address list. The zero value of every knob selects the documented
// default.
type RingConfig struct {
	// Rank is this worker's id; Addrs[i] is the listen address of rank i.
	// Both stay in original-rank space for the life of the ring: after a
	// shrink the handle's Rank() is an index into the surviving member set,
	// while cfg.Rank keeps naming the worker.
	Rank  int
	Addrs []string
	// SetupTimeout bounds the whole ring establishment (accept + dial), and
	// each later Reform / ReformGrow; default 30s.
	SetupTimeout time.Duration
	// OpTimeout is the per-frame read/write deadline; 0 selects
	// DefaultOpTimeout, negative disables deadlines entirely.
	OpTimeout time.Duration
	// MaxFrameBytes rejects incoming frames larger than this without
	// allocating; 0 selects DefaultMaxFrameBytes.
	MaxFrameBytes int
	// Heartbeat, when positive, enables the liveness side channel: each
	// neighbor pair keeps a dedicated heartbeat connection, pings flow both
	// ways every Heartbeat interval, and a neighbor silent for three
	// intervals (or whose connection resets) is declared dead. The
	// ring then fails every pending and future collective immediately with
	// a typed *Error wrapping ErrPeerDead — seconds-fast crash detection
	// decoupled from OpTimeout, which stays long enough for slow but live
	// peers. Only the liveness layer convicts a death, so it is also what
	// makes a ring reformable (Reform, ReformElastic, ReformGrow) and
	// joinable. All ranks must agree on whether heartbeats are on (it sets
	// how many connections each neighbor pair keeps).
	Heartbeat time.Duration
	// Generation is the group generation this ring starts its handshake at.
	// A respawned member of a reforming group may dial at 0 and discover the
	// group's actual generation through handshake rejections (it adopts the
	// higher generation and retries within SetupTimeout). A ring without
	// heartbeats handshakes it too, but never moves past it.
	Generation uint64
	// Seed drives the deterministic jitter stream (fxrand) behind dial
	// retries and setup backoff, mixed with Rank so ranks desynchronize.
	// Chaos and recovery tests are reproducible from the run seed.
	Seed uint64
	// Members, when non-nil, founds the ring over a subset of the world: the
	// sorted original ranks participating. Rank must appear in it and Addrs
	// stays indexed by original rank. Ring confirmation circulates a digest
	// of the member list, so two ranks that disagree on who is in the group
	// can never splice into one ring. Nil means the full world [0,len(Addrs)).
	Members []int
	// Listener, when non-nil, is the already-bound listen socket for
	// Addrs[Rank], and ownership passes to the ring: it serves every setup
	// and probe for the life of the handle, and Close, Kill or a failed dial
	// closes it. Nil makes the ring bind Addrs[Rank] itself, once. Closing a
	// handed-over listener from outside ends the ring's acceptor and nothing
	// else: the ring can no longer be probed, joined or reformed.
	Listener net.Listener
}

// TCPRing is the network implementation of Collective over a TCP ring:
// worker i accepts a connection from worker i-1 and dials worker i+1
// (mod n). AllreduceF32 runs the bandwidth-optimal ring algorithm
// (reduce-scatter followed by allgather, 2(n-1) steps), which is the same
// algorithm whose cost model internal/simnet uses for throughput projection —
// so the simulated and real substrates agree on communication structure.
//
// The transport is hardened against a hostile or failing wire: every frame
// read/write carries a deadline, incoming frame lengths are bounded by
// MaxFrameBytes before allocation, ring setup retries dials with jittered
// exponential backoff, and every failure is wrapped in a typed *Error
// carrying (rank, op, step).
//
// The handle owns its RingConfig, the current incarnation — one set of
// connections formed over one member list at one group generation — and one
// listener on its own address for its whole life. The listener's one
// acceptor routes every connection by its opening record: a census probe is
// answered, a join request recorded, and a ring connection handed to the
// setup waiting for it (or rejected when none is). Without heartbeats the
// founding incarnation lives until Close. With them the handle can replace
// its incarnation through one routine with three outcomes, the TCP mirror of
// Hub.rendezvous:
//
//   - Reform: every member comes back; same member set, generation+1.
//   - ReformElastic: as Reform within the rejoin deadline; otherwise a census
//     of the members' join points decides who is permanently gone and the
//     survivors form generation+2 without them.
//   - ReformGrow: the members plus the agreed joiners (each entering through
//     JoinTCPRing) form generation+1.
//
// A rank the group moved on without finds every handshake rejected at a
// generation ahead of its own and its collectives failing fatally; it must
// re-enter through JoinTCPRing.
//
// Collective calls follow the usual single-goroutine contract; the reform
// calls occupy a slot in the lockstep op sequence on every member. Kill,
// Hang, and Close may race them from other goroutines (they synchronize on
// the incarnation pointer, and the op in flight fails with a typed error when
// its sockets die underneath it).
type TCPRing struct {
	cfg RingConfig // as dialled, SetupTimeout defaulted, Listener cleared
	cur atomic.Pointer[incarnation]

	ln       net.Listener  // owned for life; its acceptor is acceptLoop
	gone     chan struct{} // closed when the acceptor has left
	arrivals chan arrival  // ring connections the acceptor hands to a setup

	mu        sync.Mutex
	setupDone chan struct{} // open while a setup runs (from birth until founded); nil between setups
	pending   map[int]bool  // join requests the acceptor recorded
}

var (
	_ ContextCollective = (*TCPRing)(nil)
	_ Reformer          = (*TCPRing)(nil)
	_ Elastic           = (*TCPRing)(nil)
)

// DialTCPRingConfig establishes the ring as a founding member; every
// participant must call it concurrently. A respawned member of a reforming
// group enters the same way (see RingConfig.Generation).
func DialTCPRingConfig(cfg RingConfig) (*TCPRing, error) {
	t, err := newTCPRing(cfg)
	if err != nil {
		return nil, err
	}
	members := append([]int(nil), cfg.Members...)
	if cfg.Members == nil {
		members = make([]int, len(cfg.Addrs))
		for i := range members {
			members[i] = i
		}
	}
	inc, err := t.setup(members, cfg.Generation, t.cfg.SetupTimeout)
	if err != nil {
		t.closeListener()
		return nil, wrapErr(cfg.Rank, OpDial, 0, err)
	}
	t.cur.Store(inc)
	return t, nil
}

// JoinTCPRing enters a running group as a fresh worker: it announces itself
// to any live member's join point, learns the current generation and member
// set, and then dials into the grow reform the members initiate at their next
// join point (ReformGrow). The call blocks up to wait; cfg.Rank is the
// joiner's original rank and cfg.Addrs the full world address table (the
// joiner's own address included). Heartbeats are required: only a ring with
// them can reform to absorb the joiner.
func JoinTCPRing(cfg RingConfig, wait time.Duration) (*TCPRing, error) {
	if cfg.Heartbeat <= 0 {
		return nil, fmt.Errorf("comm: joining a ring requires Heartbeat > 0")
	}
	t, err := newTCPRing(cfg)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*TCPRing, error) {
		t.closeListener()
		return nil, wrapErr(cfg.Rank, OpDial, 0, fmt.Errorf("ring join: %w", err))
	}
	deadline := time.Now().Add(wait)
	for {
		gen, members, err := requestJoin(cfg, deadline)
		if err != nil {
			return fail(err)
		}
		inc, err := t.setup(sortedUnion(members, []int{cfg.Rank}), gen+1, time.Until(deadline))
		if err == nil {
			t.cur.Store(inc)
			telemetry.Default.SetGeneration(inc.gen)
			telemetry.Default.SetGauge("world_size", int64(inc.n))
			return t, nil
		}
		// The group may have reformed (new generation or membership) while
		// we dialed; re-request and try again.
		if !time.Now().Before(deadline) {
			return fail(fmt.Errorf("not absorbed within %v: %w", wait, err))
		}
	}
}

// newTCPRing validates cfg and builds the handle around its listener —
// cfg.Listener, or Addrs[Rank] bound here — and starts the acceptor. The
// handle is born in setup: the acceptor holds ring connections for the
// founding setup from the first one on.
func newTCPRing(cfg RingConfig) (*TCPRing, error) {
	ln := cfg.Listener
	if cfg.Rank < 0 || cfg.Rank >= len(cfg.Addrs) {
		if ln != nil {
			ln.Close()
		}
		return nil, fmt.Errorf("comm: rank %d out of [0,%d)", cfg.Rank, len(cfg.Addrs))
	}
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", cfg.Addrs[cfg.Rank]); err != nil {
			return nil, wrapErr(cfg.Rank, OpDial, 0, fmt.Errorf("listen %s: %w", cfg.Addrs[cfg.Rank], err))
		}
	}
	if cfg.SetupTimeout <= 0 {
		cfg.SetupTimeout = 30 * time.Second
	}
	cfg.Listener = nil
	t := &TCPRing{
		cfg: cfg, ln: ln, gone: make(chan struct{}), arrivals: make(chan arrival),
		setupDone: make(chan struct{}), pending: make(map[int]bool),
	}
	go t.acceptLoop()
	return t, nil
}

// canReform reports whether the reform calls can work on this handle: every
// ring handshakes generations, but only the liveness layer convicts a death
// (see reformCapable).
func (t *TCPRing) canReform() bool { return t.cfg.Heartbeat > 0 }

// Reform tears down the current incarnation and forms the same member set at
// the next group generation. Every member must reform concurrently (survivors
// after an ErrPeerDead verdict, a respawned replacement through
// DialTCPRingConfig); the handshake protocol rejects members still at the old
// generation, so a completed Reform guarantees the whole group moved together.
func (t *TCPRing) Reform() (uint64, error) {
	mem, err := t.reform(t.cfg.SetupTimeout, false, nil)
	return mem.Gen, err
}

// ReformElastic is Reform with a deadline vote: if the full membership is not
// back within wait, the members whose join points still answer form the next
// incarnation without the rest (see Elastic).
func (t *TCPRing) ReformElastic(wait time.Duration) (Membership, error) {
	return t.reform(wait, true, nil)
}

// ReformGrow forms the agreed post-grow member set. All current members must
// pass the same set; the pending joiners it names dial into the same setup
// from JoinTCPRing.
func (t *TCPRing) ReformGrow(members []int) (Membership, error) {
	return t.reform(t.cfg.SetupTimeout, false, members)
}

// reform is the one routine behind all three reform calls: kill the old
// incarnation, dial the target member set at the next generation — falling
// back, when shrinkOK, to a census and the survivors at the generation after
// — and commit. Every failure is a typed *Error{Op: OpReform} at the old
// incarnation's op count.
func (t *TCPRing) reform(wait time.Duration, shrinkOK bool, grow []int) (Membership, error) {
	old := t.cur.Load()
	step := old.step.Load()
	fail := func(err error) (Membership, error) {
		return Membership{}, wrapErr(t.cfg.Rank, OpReform, step, err)
	}
	if !t.canReform() {
		return fail(errors.New("ring reform needs a heartbeat interval (only the liveness layer convicts a death)"))
	}
	old.kill() // sever every old-incarnation connection before redialing
	target := old.members
	if grow != nil {
		target = append([]int(nil), grow...)
		sort.Ints(target)
	}
	// A transiently lost rank that respawned in time joins here and nothing
	// shrinks.
	inc, err := t.setup(target, old.gen+1, wait)
	if err != nil && shrinkOK {
		// Census, then the survivors at generation+2. A refused or silent
		// join point is a permanent loss (the process, and so its listener,
		// is gone). The member digest circulated during ring confirmation
		// guarantees all survivors agreed on the same set; a disagreement
		// fails the attempt, the census reruns, and the retry converges.
		budget := 2 * t.cfg.SetupTimeout
		deadline := time.Now().Add(budget)
		for {
			target = t.census(old.members, old.gen)
			if len(target) < 2 {
				return fail(fmt.Errorf("elastic shrink: %d of %d members reachable, ring needs 2: %w",
					len(target), len(old.members), ErrPeerDead))
			}
			if inc, err = t.setup(target, old.gen+2, t.cfg.SetupTimeout); err == nil {
				break
			}
			if time.Now().After(deadline) {
				err = fmt.Errorf("no stable ring within %v: %w", budget, err)
				break
			}
		}
	}
	if err != nil {
		return fail(fmt.Errorf("ring reform over members %v: %w", target, err))
	}
	for _, m := range old.members {
		if indexOf(target, m) < 0 {
			inc.lost = append(inc.lost, m)
		}
	}
	t.cur.Store(inc)
	t.mu.Lock()
	for _, m := range target {
		delete(t.pending, m)
	}
	t.mu.Unlock()

	telemetry.Default.Add(telemetry.CtrRingReconnects, 1)
	telemetry.Default.Add(telemetry.CtrGroupReforms, 1)
	telemetry.Default.SetGeneration(inc.gen)
	if inc.n != old.n {
		ctr := telemetry.CtrElasticGrows
		if inc.n < old.n {
			ctr = telemetry.CtrElasticShrinks
		}
		telemetry.Default.Add(ctr, 1)
		telemetry.Default.SetGauge("world_size", int64(inc.n))
	}
	telemetry.Default.RecordFault(t.cfg.Rank, telemetry.OpReform, step, telemetry.FaultReform, 0)
	return t.Membership(), nil
}

// census probes every other member's join point and returns the reachable
// set (always including self), sorted.
func (t *TCPRing) census(members []int, gen uint64) []int {
	alive := make([]int, 0, len(members))
	for _, m := range members {
		if m == t.cfg.Rank || probe(t.cfg.Addrs[m], gen) {
			alive = append(alive, m)
		}
	}
	return alive
}

// probe sends one hsProbe to addr and reports whether anything answered.
// Any well-formed reply counts as life — a member mid-setup at a different
// generation is alive, just busy.
func probe(addr string, gen uint64) bool {
	deadline := time.Now().Add(time.Second)
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return false
	}
	defer c.Close()
	if err := writeRecord(c, hsProbe, gen, deadline); err != nil {
		return false
	}
	_, _, err = readRecord(c, deadline, kindsReply)
	return err == nil
}

// requestJoin announces the joiner to the first member that answers and
// returns the group's current generation and member list.
func requestJoin(cfg RingConfig, deadline time.Time) (uint64, []int, error) {
	var lastErr error = fmt.Errorf("no live member answered")
	for time.Now().Before(deadline) {
		for peer, addr := range cfg.Addrs {
			if peer == cfg.Rank {
				continue
			}
			gen, members, err := requestJoinOne(addr, cfg.Rank, deadline)
			if err != nil {
				lastErr = err
				continue
			}
			return gen, members, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return 0, nil, fmt.Errorf("join request: %w", lastErr)
}

func requestJoinOne(addr string, rank int, deadline time.Time) (uint64, []int, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	if err := writeRecord(c, hsJoin, uint64(rank), deadline); err != nil {
		return 0, nil, err
	}
	status, gen, err := readRecord(c, deadline, kindsReply)
	if err != nil {
		return 0, nil, err
	}
	if status != hsAccept {
		return 0, nil, fmt.Errorf("join rejected at generation %d", gen)
	}
	members, err := readMembers(c, deadline)
	if err != nil {
		return 0, nil, err
	}
	return gen, members, nil
}

// readMembers reads one encodeMembers blob with a bounded deadline.
func readMembers(c net.Conn, deadline time.Time) ([]int, error) {
	if err := c.SetReadDeadline(handshakeDeadline(deadline)); err != nil {
		return nil, err
	}
	defer c.SetReadDeadline(time.Time{})
	var hdr [4]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxMembers {
		return nil, fmt.Errorf("%w: member count %d out of [1,%d]", ErrCorrupt, n, maxMembers)
	}
	body := make([]byte, 4*n)
	if _, err := io.ReadFull(c, body); err != nil {
		return nil, err
	}
	return decodeMembers(append(hdr[:], body...))
}

// acceptLoop is the ring's one acceptor, running for the life of the
// listener: each connection is routed on its own goroutine, so a slow or
// hostile dialer never holds up the next.
func (t *TCPRing) acceptLoop() {
	defer close(t.gone)
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed (Close, Kill, or from outside) or broken
		}
		go t.route(c)
	}
}

// route serves one accepted connection by its opening record. A ring
// connection goes to the waiting setup, which decides its generation; with
// no setup waiting — a stale incarnation, or a respawned member ahead of our
// own reform — it is rejected with the current generation, so the dialer
// adopts and converges. A probe is answered; a join request is recorded and
// answered with the member list, or rejected while a setup runs. Nothing
// waits for route: it ends within its 2 s record deadline, or when the setup
// takes the connection, that setup ends, or the listener closes.
func (t *TCPRing) route(c net.Conn) {
	deadline := time.Now().Add(2 * time.Second)
	kind, v, err := readRecord(c, deadline, kindsOpen)
	if err != nil {
		c.Close() // hostile or truncated record
		return
	}
	if kind == preambleData || kind == preambleHeartbeat {
		t.mu.Lock()
		done := t.setupDone
		t.mu.Unlock()
		if done != nil {
			select {
			case t.arrivals <- arrival{c, kind, v}:
				return // the setup owns c now
			case <-done:
			case <-t.gone:
			}
		}
	}
	defer c.Close()
	cur, gen := t.cur.Load(), t.cfg.Generation
	if cur != nil {
		gen = cur.gen
	}
	reply := appendRecord(nil, hsReject, gen)
	switch {
	case kind == hsProbe:
		reply[0] = hsAccept
	case kind == hsJoin && t.recordJoin(v, cur):
		reply[0] = hsAccept
		reply = append(reply, encodeMembers(cur.members)...)
	}
	c.SetWriteDeadline(deadline)
	c.Write(reply)
}

// recordJoin records a join request from original rank v, unless a setup is
// running, the ring has not formed (cur is nil) or v cannot join cur.
func (t *TCPRing) recordJoin(v uint64, cur *incarnation) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.setupDone != nil || cur == nil || v > maxMembers || indexOf(cur.members, int(v)) >= 0 {
		return false
	}
	t.pending[int(v)] = true
	return true
}

// closeListener closes the listener and waits for the acceptor to leave;
// peers' probes then find nothing listening, which is the census's
// permanent-loss signal. The listener may already be closed.
func (t *TCPRing) closeListener() {
	t.ln.Close()
	<-t.gone
}

// Close shuts the listener and the current incarnation down gracefully
// (with heartbeats: a goodbye, so neighbors still draining their final
// collective can tell an orderly departure from a crash). Safe to call from
// another goroutine to reset a worker stuck mid-collective: its pending frame
// ops fail immediately.
func (t *TCPRing) Close() error {
	t.closeListener()
	return t.cur.Load().close()
}

// Kill abruptly severs everything — ring and heartbeat sockets with no
// goodbye, listener, acceptor — the way a process or machine loss would:
// neighbors observe resets/silence and declare this rank dead with
// ErrPeerDead, and a census finds nothing listening. For fault-injection
// harnesses; an orderly shutdown is Close.
func (t *TCPRing) Kill() {
	t.closeListener()
	t.cur.Load().kill()
}

// Hang freezes this rank without touching its sockets, reproducing a stalled
// process (SIGSTOP, a wedged disk, a pathological GC pause): connections stay
// open and ACKing, but pings stop, so neighbors' liveness layer must reach
// its verdict through the full miss window rather than a socket reset. The
// acceptor keeps answering probes — wedged but alive — so a census will not
// evict it; only Kill does. For fault-injection harnesses. A later Close
// releases the listener but sends no goodbye.
func (t *TCPRing) Hang() { t.cur.Load().hang() }

// Rank returns this worker's current rank: its index in the member set.
func (t *TCPRing) Rank() int { return t.cur.Load().rank }

// Size returns the current ring size.
func (t *TCPRing) Size() int { return t.cur.Load().n }

// OriginalRank reports this worker's lifetime identity (RingConfig.Rank),
// stable across membership changes.
func (t *TCPRing) OriginalRank() int { return t.cfg.Rank }

// MaxFrameBytes reports the configured incoming-frame bound.
func (t *TCPRing) MaxFrameBytes() int { return t.cur.Load().maxFrame }

// Generation reports the group generation the current incarnation formed
// under. Without heartbeats that is RingConfig.Generation for the handle's
// life: such a ring never reforms.
func (t *TCPRing) Generation() uint64 { return t.cur.Load().gen }

// Step reports how many collective operations the current incarnation has
// performed; a reform restarts the count on every member alike.
func (t *TCPRing) Step() int64 { return t.cur.Load().step.Load() }

// Membership reports the current committed configuration.
func (t *TCPRing) Membership() Membership {
	c := t.cur.Load()
	return Membership{
		Gen:     c.gen,
		Members: append([]int(nil), c.members...),
		Rank:    c.rank,
		Lost:    append([]int(nil), c.lost...),
	}
}

// PendingJoins reports the original ranks whose join requests the acceptor
// has recorded, sorted ascending.
func (t *TCPRing) PendingJoins() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.pending))
	for k := range t.pending {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// AllreduceF32 performs ring allreduce: reduce-scatter then allgather.
func (t *TCPRing) AllreduceF32(x []float32) error {
	return t.AllreduceF32Ctx(context.Background(), x)
}

// AllgatherBytes circulates payloads around the ring for n-1 steps.
func (t *TCPRing) AllgatherBytes(b []byte) ([][]byte, error) {
	return t.AllgatherBytesCtx(context.Background(), b)
}

// BroadcastBytes forwards root's payload around the ring.
func (t *TCPRing) BroadcastBytes(b []byte, root int) ([]byte, error) {
	return t.BroadcastBytesCtx(context.Background(), b, root)
}

// Barrier circulates an empty token twice so that completion implies every
// worker has entered.
func (t *TCPRing) Barrier() error { return t.BarrierCtx(context.Background()) }

// AllreduceF32Ctx is AllreduceF32 bounded by ctx (see beginOp).
func (t *TCPRing) AllreduceF32Ctx(ctx context.Context, x []float32) error {
	c := t.cur.Load()
	step, stop, err := c.beginOp(ctx, OpAllreduce)
	if err != nil {
		return err
	}
	opT0 := telemetry.Default.Start()
	err = c.allreduceRounds(step, x)
	telemetry.Default.RecordOp(c.rank, telemetry.OpAllreduce, step, int64(len(x)*4), opT0)
	c.endOp(stop)
	return err
}

// AllgatherBytesCtx is AllgatherBytes bounded by ctx (see beginOp).
func (t *TCPRing) AllgatherBytesCtx(ctx context.Context, b []byte) ([][]byte, error) {
	c := t.cur.Load()
	step, stop, err := c.beginOp(ctx, OpAllgather)
	if err != nil {
		return nil, err
	}
	opT0 := telemetry.Default.Start()
	out, err := c.gatherRounds(step, b)
	telemetry.Default.RecordOp(c.rank, telemetry.OpAllgather, step, int64(len(b)), opT0)
	c.endOp(stop)
	return out, err
}

// BroadcastBytesCtx is BroadcastBytes bounded by ctx (see beginOp).
func (t *TCPRing) BroadcastBytesCtx(ctx context.Context, b []byte, root int) ([]byte, error) {
	c := t.cur.Load()
	step, stop, err := c.beginOp(ctx, OpBroadcast)
	if err != nil {
		return nil, err
	}
	opT0 := telemetry.Default.Start()
	out, err := c.broadcastRounds(step, b, root)
	telemetry.Default.RecordOp(c.rank, telemetry.OpBroadcast, step, int64(len(b)), opT0)
	c.endOp(stop)
	return out, err
}

// BarrierCtx is Barrier bounded by ctx (see beginOp).
func (t *TCPRing) BarrierCtx(ctx context.Context) error {
	c := t.cur.Load()
	step, stop, err := c.beginOp(ctx, OpBarrier)
	if err != nil {
		return err
	}
	opT0 := telemetry.Default.Start()
	for s := 0; s < 2 && err == nil; s++ {
		_, err = c.sendRecv(nil)
	}
	telemetry.Default.RecordOp(c.rank, telemetry.OpBarrier, step, 0, opT0)
	c.endOp(stop)
	return wrapErr(c.rank, OpBarrier, step, err)
}

// close tears down both ring connections (and the heartbeat channel, when
// enabled) gracefully, and waits for the sender goroutine.
func (c *incarnation) close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(c.stop)
	if c.hbNext != nil {
		window := c.hbInterval * heartbeatMisses
		sayGoodbye(c.hbNext, window)
		sayGoodbye(c.hbPrev, window)
	}
	err1 := c.next.Close()
	err2 := c.prev.Close()
	<-c.sendDone
	if err1 != nil {
		return err1
	}
	return err2
}

// kill abruptly severs every ring and heartbeat connection without the
// goodbye handshake, reproducing the socket teardown of a process death, and
// waits for the sender goroutine. A later close is a no-op.
func (c *incarnation) kill() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	close(c.stop)
	c.severAll()
	<-c.sendDone
}

// hang stops the pings and marks the incarnation closed without touching its
// sockets; the sender goroutine leaves once the frame it may be writing is
// done, and is not waited for. A later close or kill is a no-op.
func (c *incarnation) hang() {
	if c.closed.CompareAndSwap(false, true) {
		close(c.stop)
	}
}

// severAll closes every connection of the incarnation.
func (c *incarnation) severAll() {
	c.next.Close()
	c.prev.Close()
	if c.hbNext != nil {
		c.hbNext.conn.Close()
		c.hbPrev.conn.Close()
	}
}

// sayGoodbye announces an orderly departure on one heartbeat link: the bye
// byte followed by a write-side FIN. The connection is fully closed only
// after the neighbor has had a whole miss window to read the announcement —
// an immediate close could reset the connection and destroy the bye in
// flight, turning a clean shutdown into a false death.
func sayGoodbye(link *hbLink, window time.Duration) {
	link.conn.SetWriteDeadline(time.Now().Add(window))
	link.conn.Write([]byte{hbBye})
	if tc, ok := link.conn.(*net.TCPConn); ok {
		tc.CloseWrite()
		time.AfterFunc(2*window, func() { tc.Close() })
	} else {
		link.conn.Close()
	}
}

// beginOp opens one collective op under ctx: an already-expired ctx refuses
// to start (the step counter does not advance, so the lockstep sequence is
// not consumed on a rank that never touched the wire), a ctx deadline caps
// every frame deadline inside the op (see frameDeadline), and a cancellation
// fires an immediate socket deadline so in-flight reads/writes unblock
// promptly instead of running out OpTimeout. It returns the op's step number
// and the disarm handle endOp must be given before the op returns. Under a
// context that can never expire (the plain methods' background context)
// nothing is armed and nothing is allocated.
func (c *incarnation) beginOp(ctx context.Context, op Op) (step int64, stop func() bool, err error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, wrapErr(c.rank, op, c.step.Load(), err)
	}
	if ctx.Done() != nil {
		c.opCtx = ctx
		stop = context.AfterFunc(ctx, func() {
			now := time.Now()
			c.next.SetDeadline(now)
			c.prev.SetDeadline(now)
		})
	}
	telemetry.Default.Add(telemetry.CtrCollectiveOps, 1)
	return c.step.Add(1), stop, nil
}

// endOp disarms what beginOp armed.
func (c *incarnation) endOp(stop func() bool) {
	if stop != nil {
		stop()
		c.opCtx = nil
	}
}

// frameDeadline picks the effective deadline of one frame op: the per-frame
// OpTimeout, tightened by the op context's deadline when one is set. Zero
// means no deadline (OpTimeout disabled, no ctx deadline).
func (c *incarnation) frameDeadline() time.Time {
	var dl time.Time
	if c.opTO > 0 {
		dl = time.Now().Add(c.opTO)
	}
	if c.opCtx != nil {
		if cd, ok := c.opCtx.Deadline(); ok && (dl.IsZero() || cd.Before(dl)) {
			dl = cd
		}
	}
	return dl
}

// ctxErr reports the in-flight op context's error, if any. Checked at frame
// boundaries so a cancelled op stops between frames even if the
// cancellation's socket-deadline poke raced a frame op re-arming the
// deadline. A context whose deadline has passed counts as expired even
// before its internal timer fires: frame deadlines are set to the ctx
// deadline, so a socket timeout can beat the context's own cancellation by
// a few microseconds, and that wire error must still surface as
// DeadlineExceeded.
func (c *incarnation) ctxErr() error {
	if c.opCtx == nil {
		return nil
	}
	if err := c.opCtx.Err(); err != nil {
		return err
	}
	if dl, ok := c.opCtx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// sendFrame writes one length-prefixed frame to the successor under the
// per-op write deadline: the header, then b, then f's little-endian bytes.
// On a little-endian host those are f's own memory, written through the
// write buffer (bufio hands a body larger than the buffer straight to the
// socket); elsewhere each float is encoded into the buffer's free space, a
// buffer-sized piece at a time. It runs on the sender goroutine.
func (c *incarnation) sendFrame(b []byte, f []float32) error {
	if err := c.livenessErr(); err != nil {
		return err
	}
	if err := c.ctxErr(); err != nil {
		return err
	}
	size := len(b) + 4*len(f)
	if size > c.maxFrame {
		return fmt.Errorf("%w: sending %d bytes > limit %d", ErrFrameTooLarge, size, c.maxFrame)
	}
	span := telemetry.Default.Start()
	if dl := c.frameDeadline(); !dl.IsZero() {
		if err := c.next.SetWriteDeadline(dl); err != nil {
			return c.frameErr(fmt.Errorf("set write deadline: %w", err))
		}
	}
	// Every frame ends flushed, so the header fits the free space (a stack
	// array would escape through Write).
	hdr := binary.LittleEndian.AppendUint32(c.nextW.AvailableBuffer(), uint32(size))
	if _, err := c.nextW.Write(hdr); err != nil {
		return c.frameErr(err)
	}
	if _, err := c.nextW.Write(b); err != nil {
		return c.frameErr(err)
	}
	if nativeLE {
		if _, err := c.nextW.Write(f32Bytes(f)); err != nil {
			return c.frameErr(err)
		}
		f = nil
	}
	for len(f) > 0 {
		buf := c.nextW.AvailableBuffer()
		m := min(len(f), cap(buf)/4)
		if m == 0 {
			if err := c.nextW.Flush(); err != nil {
				return c.frameErr(err)
			}
			continue
		}
		buf = buf[:4*m]
		for i, v := range f[:m] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := c.nextW.Write(buf); err != nil {
			return c.frameErr(err)
		}
		f = f[m:]
	}
	if err := c.frameErr(c.nextW.Flush()); err != nil {
		return err
	}
	telemetry.Default.Add(telemetry.CtrWireBytesSent, int64(4+size))
	telemetry.Default.Observe(telemetry.PhaseWireSend, c.rank, telemetry.TIDWireSend, "", span)
	return nil
}

// beginRecv runs the checks every incoming frame starts with and arms the
// per-op read deadline; endRecv maps the reader's verdict and accounts a frame
// of n body bytes.
func (c *incarnation) beginRecv() (span time.Time, err error) {
	if err := c.livenessErr(); err != nil {
		return span, err
	}
	if err := c.ctxErr(); err != nil {
		return span, err
	}
	span = telemetry.Default.Start()
	if dl := c.frameDeadline(); !dl.IsZero() {
		if err := c.prev.SetReadDeadline(dl); err != nil {
			return span, c.frameErr(fmt.Errorf("set read deadline: %w", err))
		}
	}
	return span, nil
}

func (c *incarnation) endRecv(span time.Time, n int, err error) error {
	if err != nil {
		return c.frameErr(err)
	}
	telemetry.Default.Add(telemetry.CtrWireBytesRecv, int64(4+n))
	telemetry.Default.Observe(telemetry.PhaseWireRecv, c.rank, telemetry.TIDWireRecv, "", span)
	return nil
}

// recvFrame reads one frame from the predecessor into a buffer the caller keeps.
func (c *incarnation) recvFrame() ([]byte, error) {
	span, err := c.beginRecv()
	if err != nil {
		return nil, err
	}
	b, err := readFrame(c.prevR, c.maxFrame)
	return b, c.endRecv(span, len(b), err)
}

// recvF32 reads one frame from the predecessor into dst (see readF32Frame).
func (c *incarnation) recvF32(dst, stage []float32) error {
	span, err := c.beginRecv()
	if err != nil {
		return err
	}
	return c.endRecv(span, 4*len(dst), readF32Frame(c.prevR, c.maxFrame, dst, stage))
}

// readFrameLen decodes a frame's length prefix. A header announcing more than
// maxFrame is rejected before any body is read or allocated: a corrupt or
// hostile prefix must not be able to demand a multi-gigabyte buffer.
func readFrameLen(r *bufio.Reader, maxFrame int) (int, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	r.Discard(4)
	if uint64(n) > uint64(maxFrame) {
		return 0, fmt.Errorf("%w: header claims %d bytes > limit %d", ErrFrameTooLarge, n, maxFrame)
	}
	return int(n), nil
}

// readFrame decodes one length-prefixed frame from r into a new buffer. With
// readF32Frame it is the ring's frame codec, factored out so the fuzz harness
// can drive it with arbitrary byte streams.
func readFrame(r *bufio.Reader, maxFrame int) ([]byte, error) {
	n, err := readFrameLen(r, maxFrame)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readF32Frame decodes one frame that must carry exactly len(dst)
// little-endian floats. With a nil stage it reads them straight into dst
// (allgather phase); otherwise it reads them a stage-sized piece at a time
// into stage and adds each piece to dst (reduce-scatter). The header is
// checked against the chunk before any body byte is consumed. On an error dst
// may be partly updated and the reader has taken whatever body bytes arrived.
func readF32Frame(r *bufio.Reader, maxFrame int, dst, stage []float32) error {
	n, err := readFrameLen(r, maxFrame)
	if err != nil {
		return err
	}
	if n != 4*len(dst) {
		return fmt.Errorf("%w: allreduce frame of %d bytes, chunk is %d", ErrCorrupt, n, 4*len(dst))
	}
	for len(dst) > 0 {
		into := dst
		if stage != nil {
			into = stage[:min(len(dst), len(stage))]
		}
		raw := f32Bytes(into)
		if _, err := io.ReadFull(r, raw); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if !nativeLE {
			for i := range into {
				into[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			}
		}
		if stage != nil {
			tensor.Axpy(1, into, dst)
		}
		dst = dst[len(into):]
	}
	return nil
}

// nativeLE reports whether this host stores a float32 in the wire's
// little-endian byte order, so that a float body is the chunk's own memory.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f32Bytes views f's memory as bytes. This direction is always aligned; the
// reverse would not be, since byte frames of any length share the reader.
func f32Bytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

// sendJob is one outgoing frame handed to the sender goroutine: a byte body,
// a float body, or (the barrier token) neither.
type sendJob struct {
	b []byte
	f []float32
}

// senderLoop is the incarnation's one sender goroutine: writing each round's
// frame here while the op's own goroutine reads the predecessor's is what
// keeps the ring deadlock-free for large frames. It exits once the
// incarnation is closed, killed or hung, after any frame it is writing.
func (c *incarnation) senderLoop() {
	defer close(c.sendDone)
	for {
		select {
		case <-c.stop:
			return
		case j := <-c.sendJobs:
			c.sendErrs <- c.sendFrame(j.b, j.f)
		}
	}
}

// startSend hands one frame to the sender; every successful startSend must be
// paired with a joinSend before the next.
func (c *incarnation) startSend(b []byte, f []float32) error {
	select {
	case c.sendJobs <- sendJob{b, f}:
		return nil
	case <-c.stop:
		return fmt.Errorf("ring send: %w", c.frameErr(net.ErrClosed))
	}
}

// joinSend waits for the frame in flight and merges its verdict with the
// receive side's.
func (c *incarnation) joinSend(rerr error) error {
	if serr := <-c.sendErrs; serr != nil {
		return fmt.Errorf("ring send: %w", serr)
	}
	if rerr != nil {
		return fmt.Errorf("ring recv: %w", rerr)
	}
	return nil
}

// sendRecv overlaps sending out to the successor with receiving one frame
// from the predecessor.
func (c *incarnation) sendRecv(out []byte) ([]byte, error) {
	if err := c.startSend(out, nil); err != nil {
		return nil, err
	}
	in, rerr := c.recvFrame()
	return in, c.joinSend(rerr)
}

// sendRecvF32 is one allreduce round: send streams out through the write
// buffer while the predecessor's frame is added into recv through stage
// (reduce-scatter), or stored into it when stage is nil. The two must not
// overlap.
func (c *incarnation) sendRecvF32(send, recv, stage []float32) error {
	if err := c.startSend(nil, send); err != nil {
		return err
	}
	return c.joinSend(c.recvF32(recv, stage))
}

// allreduceRounds is AllreduceF32's ring schedule, split out so the op-level
// xrank event covers exactly the time spent in ring I/O. The chunks a round
// sends and receives are distinct, so the sender reads x while this goroutine
// writes it.
func (c *incarnation) allreduceRounds(step int64, x []float32) error {
	n := c.n
	chunk := func(i int) []float32 {
		i = ((i % n) + n) % n
		return x[i*len(x)/n : (i+1)*len(x)/n]
	}
	// Reduce-scatter: after n-1 steps, rank r holds the fully reduced chunk
	// (r+1) mod n.
	for s := 0; s < n-1; s++ {
		if err := c.sendRecvF32(chunk(c.rank-s), chunk(c.rank-s-1), c.stage); err != nil {
			return wrapErr(c.rank, OpAllreduce, step, err)
		}
	}
	// Allgather of the reduced chunks.
	for s := 0; s < n-1; s++ {
		if err := c.sendRecvF32(chunk(c.rank+1-s), chunk(c.rank-s), nil); err != nil {
			return wrapErr(c.rank, OpAllreduce, step, err)
		}
	}
	return nil
}

func (c *incarnation) gatherRounds(step int64, b []byte) ([][]byte, error) {
	out := make([][]byte, c.n)
	out[c.rank] = b
	cur := b
	for s := 0; s < c.n-1; s++ {
		in, err := c.sendRecv(cur)
		if err != nil {
			return nil, wrapErr(c.rank, OpAllgather, step, err)
		}
		origin := ((c.rank-s-1)%c.n + c.n) % c.n
		out[origin] = in
		cur = in
	}
	return out, nil
}

func (c *incarnation) broadcastRounds(step int64, b []byte, root int) ([]byte, error) {
	if root < 0 || root >= c.n {
		return nil, wrapErr(c.rank, OpBroadcast, step, fmt.Errorf("broadcast root %d out of range", root))
	}
	if c.rank == root {
		// The frame completing the loop is absorbed.
		if _, err := c.sendRecv(b); err != nil {
			return nil, wrapErr(c.rank, OpBroadcast, step, err)
		}
		return b, nil
	}
	in, err := c.recvFrame()
	if err == nil {
		if err = c.startSend(in, nil); err == nil {
			err = c.joinSend(nil)
		}
	}
	if err != nil {
		return nil, wrapErr(c.rank, OpBroadcast, step, err)
	}
	return in, nil
}
