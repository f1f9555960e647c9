package comm

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fxrand"
	"repro/internal/telemetry"
)

// Every ring connection opens with a 9-byte record ([kind][8-byte big-endian
// value]) read by the receiving ring's acceptor. A ring dialer announces its
// role ('G' data, 'H' heartbeat) and its group generation; the setup waiting
// for it answers with a 9-byte reply ([hsAccept|hsReject][generation]). A
// rejection carries the higher of the two generations, and both sides adopt
// upward and retry, so a ring reforming after a member death converges on
// generation g+1 while every connection from the old incarnation is refused —
// a stale member can never splice itself into the new ring. Ring confirmation
// tokens and heartbeat pings are records of the same shape, so a generation
// mismatch that slips past setup is detected within one ping interval and the
// peer is rejected with ErrStaleGeneration.
const (
	preambleData      = 'G'
	preambleHeartbeat = 'H'
	// hbBye is sent on the heartbeat channel by a rank closing gracefully,
	// so neighbors still draining their final collective can tell an orderly
	// departure from a crash.
	hbBye = 'B'
	// hsAccept / hsReject open the acceptor's handshake reply.
	hsAccept = 'A'
	hsReject = 'R'
	// confirmMagic opens the post-setup ring confirmation token.
	confirmMagic = 'C'
	// hsProbe is an elastic liveness census probe: the value carries the
	// prober's generation, the reply ('A') the ring's current one. The
	// acceptor answers probes at any time, during a setup too — an
	// overlapping setup phase must not read as a death.
	hsProbe = 'E'
	// hsJoin is an elastic join request; the value carries the joiner's
	// original rank, not a generation. Between setups the acceptor answers
	// with the generation and member list; during one it rejects (the joiner
	// retries until a formed member answers).
	hsJoin = 'J'
	// handshakeLen is the wire size of every record: one kind byte plus the
	// value.
	handshakeLen = 9

	// The record kinds each reader accepts: a connection's opening record
	// and an acceptor's reply.
	kindsOpen  = string(preambleData) + string(preambleHeartbeat) + string(hsProbe) + string(hsJoin)
	kindsReply = string(hsAccept) + string(hsReject)
)

// incarnation is one formed ring: the connections to both neighbors (plus the
// heartbeat links when the liveness layer is on), formed over one member list
// at one group generation. It is immutable once setup returns it, apart from
// the op counter, the in-flight op context, and the liveness verdict; a
// TCPRing replaces its incarnation wholesale when it reforms.
type incarnation struct {
	rank, n  int      // this worker's index in, and the length of, members
	members  []int    // sorted original ranks this incarnation formed over
	lost     []int    // original ranks evicted by the reform that produced it
	digest   uint64   // membershipDigest(members), circulated at confirmation
	gen      uint64   // group generation this incarnation formed under
	next     net.Conn // to rank+1
	prev     net.Conn // from rank-1
	nextW    *bufio.Writer
	prevR    *bufio.Reader
	stage    []float32 // reduce-scatter bodies land here before the add
	opTO     time.Duration
	maxFrame int
	step     atomic.Int64
	closed   atomic.Bool

	// opCtx is the context of the collective op in flight when it can expire
	// (nil under the background context). The handle is single-goroutine by
	// contract, and the sender goroutine is handed each frame after the field
	// is written and has reported back before the op returns, so no
	// synchronization is needed.
	opCtx context.Context

	// The sender goroutine (senderLoop), started with the incarnation; after
	// setup it is the only writer of nextW. stop is closed by whichever of
	// close, kill and hang comes first, and also ends the ping loop.
	sendJobs chan sendJob
	sendErrs chan error // cap 1: the sender never blocks reporting a frame
	sendDone chan struct{}
	stop     chan struct{}

	// Liveness side channel (nil/zero when RingConfig.Heartbeat is off).
	hbNext     *hbLink // heartbeat link to rank+1 (this side dialed)
	hbPrev     *hbLink // heartbeat link from rank-1 (this side accepted)
	hbInterval time.Duration

	peerMu  sync.Mutex
	peerErr error // first liveness failure; poisons all frame ops
}

// hbLink is one heartbeat connection plus the neighbor behind it. departed
// flips when the neighbor announces a graceful close (hbBye): its silence
// afterwards is expected, not a death.
type hbLink struct {
	conn     net.Conn
	peer     int
	departed atomic.Bool
}

// arrival is one predecessor connection the acceptor hands to the waiting
// setup, with the role and generation its opening record announced.
type arrival struct {
	c    net.Conn
	role byte
	gen  uint64
}

// setup forms one ring incarnation over members (sorted original ranks) at
// generation gen within timeout. It dials the successor itself and takes the
// predecessor's connections from the ring's acceptor; it never touches the
// listener. Every connection handshakes the group generation, and an attempt
// that fails — most often because it discovered a higher generation, through
// a handshake rejection or a mismatched confirmation token — restarts at the
// highest generation seen until the timeout. This is what lets a reforming
// group converge on g+1 while a respawned member dialing at generation 0
// discovers the group's actual generation on the fly.
func (t *TCPRing) setup(members []int, gen uint64, timeout time.Duration) (*incarnation, error) {
	cfg := t.cfg
	// Narrow the world to the member set: the ring is indexed by position in
	// the sorted member list.
	rank := indexOf(members, cfg.Rank)
	if rank < 0 {
		return nil, fmt.Errorf("comm: rank %d not in ring members %v", cfg.Rank, members)
	}
	n := len(members)
	if n < 2 {
		return nil, fmt.Errorf("comm: tcp ring needs >= 2 workers, got %d", n)
	}
	addrs := make([]string, n)
	for i, m := range members {
		if m < 0 || m >= len(cfg.Addrs) {
			return nil, fmt.Errorf("comm: ring member %d outside address table [0,%d)", m, len(cfg.Addrs))
		}
		if i > 0 && m <= members[i-1] {
			return nil, fmt.Errorf("comm: ring members %v not strictly ascending", members)
		}
		addrs[i] = cfg.Addrs[m]
	}
	cfg.Rank, cfg.Addrs, cfg.Members = rank, addrs, members

	t.mu.Lock()
	if t.setupDone == nil {
		t.setupDone = make(chan struct{})
	}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		close(t.setupDone)
		t.setupDone = nil
		t.mu.Unlock()
	}()

	deadline := time.Now().Add(timeout)
	rng := fxrand.New(cfg.Seed*0x9e3779b97f4a7c15 + uint64(rank) + 1)
	for {
		c, adopt, err := t.setupAttempt(cfg, gen, deadline, rng)
		if err == nil || !time.Now().Before(deadline) || errors.Is(err, net.ErrClosed) {
			return c, err // formed, out of time, or the listener is gone
		}
		gen = max(gen, adopt)
		// Brief jittered pause so restarting ranks don't re-collide. An
		// attempt started after the deadline could still take a live
		// neighbour's dial before it dies, so a pause that reaches the
		// deadline ends the setup.
		time.Sleep(min(time.Duration(rng.Int63()%int64(5*time.Millisecond))+time.Millisecond, time.Until(deadline)))
		if !time.Now().Before(deadline) {
			return nil, err
		}
	}
}

// predConns is what one setup attempt took from its predecessor: the data
// connection, plus the heartbeat connection when the liveness layer is on.
type predConns struct {
	data, hb net.Conn
	adopt    uint64 // non-zero: a dialer announced this higher generation
	err      error
}

// setupAttempt runs one complete ring-establishment attempt at a fixed
// generation (cfg narrowed to the member set): the dial of the successor's
// connections, concurrent with taking the predecessor's, followed by the ring
// confirmation that proves every member formed this same incarnation. On
// failure it reports the highest generation it learned about so the caller
// can adopt it.
func (t *TCPRing) setupAttempt(cfg RingConfig, gen uint64, deadline time.Time, rng *fxrand.RNG) (*incarnation, uint64, error) {
	rank, n := cfg.Rank, len(cfg.Addrs)
	hb := cfg.Heartbeat > 0
	stop := make(chan struct{})
	var next atomic.Pointer[net.Conn] // the data connection, once dialed
	predCh := make(chan predConns, 1)
	go func() { predCh <- t.takePredecessor(gen, hb, deadline, stop, &next) }()

	roles := []byte{preambleData, preambleHeartbeat}
	if !hb {
		roles = roles[:1]
	}
	var dialed []net.Conn // data, then heartbeat
	var adopt uint64
	var err error
	for _, role := range roles {
		c, a, derr := dialHandshake(cfg.Addrs[(rank+1)%n], role, gen, deadline, rng)
		adopt, err = max(adopt, a), derr
		if err != nil {
			close(stop)
			break
		}
		dialed = append(dialed, c)
		if role == preambleData {
			next.Store(&c)
		}
	}
	pred := <-predCh
	opened := append(dialed, pred.data, pred.hb)
	fail := func(err error, peerGen uint64) (*incarnation, uint64, error) {
		for _, conn := range opened {
			if conn != nil {
				conn.Close()
			}
		}
		return nil, max(adopt, pred.adopt, peerGen), err
	}
	if err == nil {
		err = pred.err
	}
	if err != nil {
		return fail(err, 0)
	}

	c := &incarnation{
		rank: rank, n: n, gen: gen,
		members: cfg.Members, digest: membershipDigest(cfg.Members),
		next: dialed[0], prev: pred.data,
		sendJobs: make(chan sendJob), sendErrs: make(chan error, 1),
		sendDone: make(chan struct{}), stop: make(chan struct{}),
	}
	c.nextW = bufio.NewWriterSize(c.next, 1<<16)
	c.prevR = bufio.NewReaderSize(c.prev, 1<<16)
	c.stage = make([]float32, 1<<14) // as many bytes as the read buffer
	c.opTO = cfg.OpTimeout
	if c.opTO == 0 {
		c.opTO = DefaultOpTimeout
	}
	c.maxFrame = cfg.MaxFrameBytes
	if c.maxFrame <= 0 {
		c.maxFrame = DefaultMaxFrameBytes
	}
	// Ring confirmation: completing it proves every member of the loop
	// handshook this generation and member set and is still alive — a
	// neighbor that restarted into a newer incarnation after its handshake
	// breaks the round here, before the ring is handed to callers.
	if peerGen, err := c.confirmRing(deadline); err != nil {
		return fail(fmt.Errorf("ring confirmation: %w", err), peerGen)
	}
	if hb {
		c.hbNext = &hbLink{conn: dialed[1], peer: (rank + 1) % n}
		c.hbPrev = &hbLink{conn: pred.hb, peer: (rank - 1 + n) % n}
		c.hbInterval = cfg.Heartbeat
		go c.pingLoop()
		go c.watchLoop(c.hbPrev)
		go c.watchLoop(c.hbNext)
	}
	go c.senderLoop()
	return c, 0, nil
}

// takePredecessor collects the predecessor's connections for one setup
// attempt from the arrivals the acceptor hands over, until the attempt has
// them all, is abandoned through stop, or runs out of time. A matching
// generation is accepted ('A'); a mismatch is rejected ('R') carrying the
// higher of the two generations, and a higher announced generation
// additionally ends the attempt so the caller can adopt it. A duplicate role,
// or a heartbeat connection on a ring without heartbeats, is dropped.
//
// Attempts on both sides die and retry independently, so a connection may
// come from, or go to, an attempt that has since died and closed it (see
// closedByPeer). A dead successor (next) ends the attempt and the arrival is
// rejected, so its dialer redials into the next one; a dead held connection
// gives way to a newer one of its role, and a data connection does not
// complete a pair with a heartbeat one that has died since it arrived.
func (t *TCPRing) takePredecessor(gen uint64, hb bool, deadline time.Time, stop <-chan struct{}, next *atomic.Pointer[net.Conn]) (out predConns) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	fail := func(err error) predConns {
		for _, c := range []net.Conn{out.data, out.hb} {
			if c != nil {
				c.Close()
			}
		}
		out.data, out.hb, out.err = nil, nil, err
		return out
	}
	for out.data == nil || (hb && out.hb == nil) {
		var a arrival
		select {
		case <-stop:
			return fail(errors.New("setup attempt abandoned"))
		case <-t.gone:
			return fail(fmt.Errorf("accept: %w", net.ErrClosed))
		case <-timer.C:
			return fail(errors.New("timed out waiting for predecessor"))
		case a = <-t.arrivals:
		}
		replyBy := time.Now().Add(2 * time.Second)
		if a.gen != gen {
			writeRecord(a.c, hsReject, max(gen, a.gen), replyBy)
			a.c.Close()
			if a.gen > gen {
				out.adopt = a.gen
				return fail(fmt.Errorf("peer announced generation %d > %d", a.gen, gen))
			}
			continue // stale dialer; it will adopt our generation and retry
		}
		if c := next.Load(); c != nil && closedByPeer(*c) {
			writeRecord(a.c, hsReject, gen, replyBy)
			a.c.Close()
			return fail(errors.New("successor abandoned the attempt"))
		}
		slot := &out.data
		if a.role == preambleHeartbeat {
			slot = &out.hb
		}
		if *slot != nil && closedByPeer(*slot) {
			(*slot).Close()
			*slot = nil
		}
		if *slot != nil || (slot == &out.hb && !hb) || writeRecord(a.c, hsAccept, gen, replyBy) != nil {
			a.c.Close()
			continue
		}
		*slot = a.c
		if slot == &out.data && out.hb != nil && closedByPeer(out.hb) {
			out.hb.Close()
			out.hb = nil
		}
	}
	return out
}

// dialHandshake dials the successor and runs the role+generation handshake
// until accepted. A rejection carrying a higher generation aborts with that
// generation for the caller to adopt; a rejection at or below our own backs
// off and redials (the peer is still converging).
func dialHandshake(addr string, role byte, gen uint64, deadline time.Time, rng *fxrand.RNG) (net.Conn, uint64, error) {
	for {
		c, err := dialRetry(addr, deadline, rng)
		if err != nil {
			return nil, 0, err
		}
		if err := writeRecord(c, role, gen, deadline); err != nil {
			c.Close()
			return nil, 0, err
		}
		status, peerGen, err := readRecord(c, deadline, kindsReply)
		if err == nil && status == hsAccept {
			return c, 0, nil
		}
		c.Close()
		if err == nil && peerGen > gen {
			return nil, peerGen, fmt.Errorf("handshake rejected: peer at generation %d > %d", peerGen, gen)
		}
		if err == nil {
			err = fmt.Errorf("rejected at generation %d", gen)
		}
		// The peer may be mid-restart between incarnations, or not yet in
		// its setup; pause and redial, unless the pause reaches the deadline.
		time.Sleep(min(time.Duration(rng.Int63()%int64(10*time.Millisecond))+time.Millisecond, time.Until(deadline)))
		if !time.Now().Before(deadline) {
			return nil, 0, fmt.Errorf("handshake with %s: %w", addr, err)
		}
	}
}

// confirmRing circulates a token around the ring three times: twice stamped
// with the generation, once with the member-list digest. Completing the
// generation rounds proves the whole loop is alive at this generation; a
// mismatched token reports the peer's generation for adoption. A digest
// mismatch means two ranks formed this generation with different ideas of who
// is in the group — a retryable setup failure (no generation to adopt), so
// overlapping elastic reforms self-stabilize instead of exchanging payloads
// across disagreeing rings. A round waiting on prev checks every 100 ms
// that the successor has not closed next (see closedByPeer), or both sides
// would sit out the deadline.
func (c *incarnation) confirmRing(deadline time.Time) (uint64, error) {
	var tok [handshakeLen]byte
	for round, want := range [3]uint64{c.gen, c.gen, c.digest} {
		appendRecord(tok[:0], confirmMagic, want)
		c.next.SetWriteDeadline(deadline)
		if _, err := c.nextW.Write(tok[:]); err != nil {
			return 0, err
		}
		if err := c.nextW.Flush(); err != nil {
			return 0, err
		}
		for read := 0; read < len(tok); {
			poll := time.Now().Add(100 * time.Millisecond)
			if deadline.Before(poll) {
				poll = deadline
			}
			c.prev.SetReadDeadline(poll)
			n, err := io.ReadFull(c.prevR, tok[read:])
			read += n
			switch {
			case err == nil:
			case !errors.Is(err, os.ErrDeadlineExceeded) || !time.Now().Before(deadline):
				return 0, err
			case closedByPeer(c.next):
				return 0, errors.New("successor abandoned the attempt")
			}
		}
		_, got, err := parseRecord(tok[:], string(confirmMagic))
		if err != nil {
			return 0, fmt.Errorf("%w: bad confirmation token", ErrCorrupt)
		}
		switch {
		case got == want:
		case round < 2:
			return got, fmt.Errorf("%w: predecessor confirmed generation %d, ours %d",
				ErrStaleGeneration, got, want)
		default:
			return 0, fmt.Errorf("membership digest mismatch: predecessor %016x, ours %016x", got, want)
		}
	}
	c.next.SetWriteDeadline(time.Time{})
	c.prev.SetReadDeadline(time.Time{})
	return 0, nil
}

// closedByPeer reports whether the peer is done with c, a setup connection
// it does not write on yet: the data connection this side dialed, or one
// held from the predecessor before this side confirms. A read that ends at
// once instead of timing out — a close, or bytes from an attempt this setup
// is not part of — is that end.
func closedByPeer(c net.Conn) bool {
	c.SetReadDeadline(time.Now().Add(time.Millisecond))
	defer c.SetReadDeadline(time.Time{})
	var b [1]byte
	_, err := c.Read(b[:])
	return !errors.Is(err, os.ErrDeadlineExceeded)
}

// dialRetry dials addr with jittered exponential backoff until it connects
// or the deadline passes, and never dials after the deadline. The jitter
// stream is deterministic (fxrand seeded from RingConfig.Seed and the rank),
// so chaos and recovery runs retry in a reproducible pattern while still
// desynchronizing the ranks' retry storms.
func dialRetry(addr string, deadline time.Time, rng *fxrand.RNG) (net.Conn, error) {
	backoff := 10 * time.Millisecond
	err := os.ErrDeadlineExceeded
	for time.Now().Before(deadline) {
		var c net.Conn
		if c, err = net.DialTimeout("tcp", addr, time.Second); err == nil {
			return c, nil
		}
		time.Sleep(min(backoff/2+time.Duration(rng.Int63()%int64(backoff)), time.Until(deadline)))
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
	return nil, fmt.Errorf("dial %s: %w", addr, err)
}

// appendRecord encodes a record (kind byte + 8-byte big-endian value) onto
// dst.
func appendRecord(dst []byte, kind byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, kind), v)
}

// parseRecord decodes one record whose kind must be one of kinds. Anything
// else is protocol corruption.
func parseRecord(b []byte, kinds string) (kind byte, v uint64, err error) {
	if len(b) != handshakeLen {
		return 0, 0, fmt.Errorf("%w: record is %d bytes, want %d", ErrCorrupt, len(b), handshakeLen)
	}
	if strings.IndexByte(kinds, b[0]) < 0 {
		return 0, 0, fmt.Errorf("%w: record kind %q, want one of %q", ErrCorrupt, b[0], kinds)
	}
	return b[0], binary.BigEndian.Uint64(b[1:]), nil
}

// writeRecord sends one record under deadline.
func writeRecord(c net.Conn, kind byte, v uint64, deadline time.Time) error {
	if err := c.SetWriteDeadline(deadline); err != nil {
		return err
	}
	defer c.SetWriteDeadline(time.Time{})
	_, err := c.Write(appendRecord(nil, kind, v))
	return err
}

// readRecord reads one record whose kind must be one of kinds, within
// handshakeDeadline(deadline).
func readRecord(c net.Conn, deadline time.Time, kinds string) (byte, uint64, error) {
	if err := c.SetReadDeadline(handshakeDeadline(deadline)); err != nil {
		return 0, 0, err
	}
	defer c.SetReadDeadline(time.Time{})
	var b [handshakeLen]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return 0, 0, err
	}
	return parseRecord(b[:], kinds)
}

// handshakeDeadline bounds one handshake read. Individual handshakes answer
// fast or not at all; each gets a slice of the setup budget so one wedged
// dialer can't consume it all.
func handshakeDeadline(deadline time.Time) time.Time {
	if d := time.Now().Add(2 * time.Second); d.Before(deadline) {
		return d
	}
	return deadline
}

// pingLoop writes one generation-stamped ping record to each heartbeat
// neighbor every interval. A write failure means the neighbor's socket reset
// — declare it dead rather than waiting for the read side to time out.
func (c *incarnation) pingLoop() {
	ping := appendRecord(nil, preambleHeartbeat, c.gen)
	ticker := time.NewTicker(c.hbInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		for _, link := range []*hbLink{c.hbNext, c.hbPrev} {
			if link.departed.Load() {
				continue
			}
			link.conn.SetWriteDeadline(time.Now().Add(c.hbInterval))
			if _, err := link.conn.Write(ping); err != nil {
				if !c.closed.Load() && !link.departed.Load() {
					c.failPeer(link.peer, fmt.Errorf("heartbeat write: %w", err))
				}
				return
			}
			telemetry.Default.Add(telemetry.CtrHeartbeatPings, 1)
		}
	}
}

// hbParser is the stateful decoder of one heartbeat stream: a sequence of
// 9-byte generation-stamped ping records interleaved with single goodbye
// bytes, arriving in arbitrary read-sized pieces. Partial records are carried
// across feeds.
type hbParser struct {
	buf []byte
}

// feed consumes one read's worth of bytes and reports whether a goodbye was
// seen. A record with an unknown kind is protocol corruption; a ping stamped
// with a generation other than gen is a stale (or future) incarnation talking
// on this incarnation's wire — both are returned as typed errors for the
// liveness verdict.
func (p *hbParser) feed(b []byte, gen uint64) (bye bool, err error) {
	p.buf = append(p.buf, b...)
	for len(p.buf) > 0 {
		switch p.buf[0] {
		case hbBye:
			return true, nil
		case preambleHeartbeat:
			if len(p.buf) < handshakeLen {
				return false, nil // partial ping; wait for the rest
			}
			_, pingGen, perr := parseRecord(p.buf[:handshakeLen], string(preambleHeartbeat))
			if perr != nil {
				return false, perr
			}
			if pingGen != gen {
				return false, fmt.Errorf("%w: ping stamped generation %d, ours %d",
					ErrStaleGeneration, pingGen, gen)
			}
			p.buf = p.buf[handshakeLen:]
		default:
			return false, fmt.Errorf("%w: unknown heartbeat record kind %q", ErrCorrupt, p.buf[0])
		}
	}
	return false, nil
}

// watchLoop reads pings from one heartbeat connection. heartbeatMisses
// consecutive silent intervals, or a connection reset, declare the peer dead;
// a goodbye record instead marks an orderly departure and ends the watch
// without declaring anything. A corrupt record or a ping from another
// generation is an immediate death verdict carrying the typed cause. Watching
// interval by interval (rather than one read with a window-sized deadline)
// keeps the same death timing — hbInterval × heartbeatMisses of total silence
// — while making each individual miss observable as a telemetry counter tick
// before the verdict lands.
func (c *incarnation) watchLoop(link *hbLink) {
	buf := make([]byte, 64)
	var parser hbParser
	misses := 0
	for {
		link.conn.SetReadDeadline(time.Now().Add(c.hbInterval))
		n, err := link.conn.Read(buf)
		if n > 0 {
			misses = 0
		}
		bye, perr := parser.feed(buf[:n], c.gen)
		if bye {
			link.departed.Store(true)
			link.conn.Close()
			return
		}
		if perr != nil {
			if !c.closed.Load() && !link.departed.Load() {
				c.failPeer(link.peer, fmt.Errorf("heartbeat stream: %w", perr))
			} else {
				link.conn.Close()
			}
			return
		}
		if err == nil {
			continue
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			misses++
			if !c.closed.Load() && !link.departed.Load() {
				telemetry.Default.Add(telemetry.CtrHeartbeatMisses, 1)
			}
			if misses < heartbeatMisses {
				continue
			}
			err = fmt.Errorf("silent for %d intervals: %w", misses, err)
		}
		if !c.closed.Load() && !link.departed.Load() {
			c.failPeer(link.peer, fmt.Errorf("heartbeat silent/reset: %w", err))
		} else {
			link.conn.Close()
		}
		return
	}
}

// failPeer records the first liveness failure as a typed *Error wrapping
// ErrPeerDead and closes every connection: pending frame ops fail
// immediately instead of running out their OpTimeout, and the teardown
// cascades the death announcement to the other neighbor.
func (c *incarnation) failPeer(peer int, cause error) {
	c.peerMu.Lock()
	first := c.peerErr == nil
	if first {
		c.peerErr = &Error{
			Rank: c.rank,
			Op:   OpHeartbeat,
			Step: c.step.Load(),
			Err:  fmt.Errorf("ring neighbor rank %d: %w (%w)", peer, ErrPeerDead, cause),
		}
	}
	verdict := c.peerErr
	c.peerMu.Unlock()
	if first {
		telemetry.Default.Add(telemetry.CtrPeerDeaths, 1)
		telemetry.Default.RecordFault(c.rank, telemetry.OpHeartbeat, c.step.Load(), telemetry.FaultPeerDead, int64(peer))
		telemetry.Default.Flight("peer_dead", verdict)
	}
	c.severAll()
}

// livenessErr returns the recorded peer-death error, if any.
func (c *incarnation) livenessErr() error {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	return c.peerErr
}

// frameErr maps a raw frame-op failure to the liveness error when one is
// recorded: the interesting fact is that the neighbor died, not that the
// locally-closed socket reported "use of closed connection".
func (c *incarnation) frameErr(err error) error {
	if err == nil {
		return nil
	}
	if le := c.livenessErr(); le != nil {
		return le
	}
	// A frame failing under an expired op context is the context's doing
	// (beginOp pokes the socket deadlines on cancellation): surface the
	// context error so errors.Is(err, context.Canceled/DeadlineExceeded)
	// works at the call site.
	if ce := c.ctxErr(); ce != nil {
		return fmt.Errorf("%w (%v)", ce, err)
	}
	// A frame op failing because the neighbor just died races the watchLoop's
	// verdict: the data and heartbeat sockets reset at the same instant. Give
	// the liveness layer one miss window to render its judgment so callers see
	// ErrPeerDead rather than a bare EOF/reset.
	if c.hbNext != nil && !c.closed.Load() {
		deadline := time.Now().Add(c.hbInterval * heartbeatMisses)
		for time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			if le := c.livenessErr(); le != nil {
				return le
			}
		}
	}
	return err
}
