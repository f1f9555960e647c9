package comm

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fxrand"
	"repro/internal/telemetry"
)

// Connection preambles distinguish the data stream from the heartbeat side
// channel when RingConfig.Heartbeat is enabled; without heartbeats the wire
// format carries no preamble and stays byte-compatible with older rings.
//
// With heartbeats on, every dialed connection opens with a 9-byte generation
// handshake ([role][8-byte big-endian generation]) that the acceptor answers
// with a 9-byte reply ([hsAccept|hsReject][generation]). A rejection carries
// the higher of the two generations, and both sides adopt upward and retry,
// so a ring reforming after a member death converges on generation g+1 while
// every connection from the old incarnation is refused — a stale member can
// never splice itself into the new ring. Heartbeat pings then carry the
// generation in every record, so a generation mismatch that slips past setup
// is detected within one ping interval and the peer is rejected with
// ErrStaleGeneration.
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
	// hsProbe is an elastic liveness census probe: the payload field carries
	// the prober's generation, the reply ('A') the acceptor's current one.
	// Probes are answered during ring setup too — an overlapping setup phase
	// must not read as a death — and never affect the acceptor's state.
	hsProbe = 'E'
	// hsJoin is an elastic join request; the payload field carries the
	// joiner's original rank, not a generation. A member's join point
	// answers with its generation and member list; plain ring setup rejects
	// it (the joiner retries until a member is listening).
	hsJoin = 'J'
	// handshakeLen is the wire size of handshake records, replies, ping
	// records, and confirmation tokens alike: one kind byte plus the
	// generation.
	handshakeLen = 9
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

// dialIncarnation forms one ring incarnation over cfg.Members (sorted
// original ranks; cfg.Rank and cfg.Addrs are in original-rank space) at
// cfg.Generation. cfg.Listener, when set, is borrowed for the setup and left
// open; otherwise the setup binds Addrs[Rank] and closes it again.
//
// With heartbeats enabled the setup is generation-aware: the listener stays
// open across attempts, every connection handshakes the group generation, and
// an attempt that discovers a higher generation (through a handshake
// rejection or a mismatched confirmation token) restarts at that generation
// until SetupTimeout. This is what lets a reforming group converge on g+1
// while a respawned member dialing at generation 0 discovers the group's
// actual generation on the fly.
func dialIncarnation(cfg RingConfig) (*incarnation, error) {
	// Narrow the world to the member set: the ring is indexed by position in
	// the sorted member list.
	rank := indexOf(cfg.Members, cfg.Rank)
	if rank < 0 {
		return nil, fmt.Errorf("comm: rank %d not in ring members %v", cfg.Rank, cfg.Members)
	}
	n := len(cfg.Members)
	if n < 2 {
		return nil, fmt.Errorf("comm: tcp ring needs >= 2 workers, got %d", n)
	}
	addrs := make([]string, n)
	for i, m := range cfg.Members {
		if m < 0 || m >= len(cfg.Addrs) {
			return nil, fmt.Errorf("comm: ring member %d outside address table [0,%d)", m, len(cfg.Addrs))
		}
		if i > 0 && m <= cfg.Members[i-1] {
			return nil, fmt.Errorf("comm: ring members %v not strictly ascending", cfg.Members)
		}
		addrs[i] = cfg.Addrs[m]
	}
	cfg.Rank, cfg.Addrs = rank, addrs
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", addrs[rank])
		if err != nil {
			return nil, fmt.Errorf("listen %s: %w", addrs[rank], err)
		}
		defer ln.Close()
	}

	deadline := time.Now().Add(cfg.SetupTimeout)
	rng := fxrand.New(cfg.Seed*0x9e3779b97f4a7c15 + uint64(rank) + 1)
	gen := cfg.Generation
	for {
		c, adopt, err := setupAttempt(cfg, ln, gen, deadline, rng)
		if err == nil {
			return c, nil
		}
		// Only the generation-aware protocol retries whole attempts: a
		// rejected handshake or a broken confirmation round means a peer is
		// reforming, not that setup failed. Heartbeat-less setup keeps its
		// single-attempt semantics.
		if cfg.Heartbeat <= 0 || !time.Now().Before(deadline) {
			return nil, err
		}
		if adopt > gen {
			gen = adopt
		}
		// Brief jittered pause so restarting ranks don't re-collide.
		time.Sleep(time.Duration(rng.Int63()%int64(5*time.Millisecond)) + time.Millisecond)
	}
}

// acceptOut is the accept side's verdict for one setup attempt.
type acceptOut struct {
	data, hb net.Conn
	adopt    uint64 // non-zero: a dialer announced this higher generation
	err      error
}

// setupAttempt runs one complete ring-establishment attempt at a fixed
// generation: concurrent accept+classify of the predecessor's connections and
// dial of the successor's, followed (in generation mode) by the ring
// confirmation that proves every member formed this same incarnation. On
// failure it reports the highest generation it learned about so the caller
// can adopt it.
func setupAttempt(cfg RingConfig, ln net.Listener, gen uint64, deadline time.Time, rng *fxrand.RNG) (*incarnation, uint64, error) {
	rank, addrs := cfg.Rank, cfg.Addrs
	n := len(addrs)
	hb := cfg.Heartbeat > 0
	succ := addrs[(rank+1)%n]

	stop := make(chan struct{})
	acceptCh := make(chan acceptOut, 1)
	go func() { acceptCh <- acceptSide(ln, gen, hb, deadline, stop) }()

	var opened []net.Conn
	var adopt uint64
	// join collects the accept goroutine's verdict exactly once. The success
	// path waits for it to finish naturally (the predecessor may still be
	// dialing); the failure path abandons it through the stop channel first.
	var joined *acceptOut
	join := func(abandon bool) acceptOut {
		if joined == nil {
			if abandon {
				close(stop)
			}
			ao := <-acceptCh
			joined = &ao
		}
		return *joined
	}
	fail := func(err error) (*incarnation, uint64, error) {
		ao := join(true)
		for _, conn := range append(opened, ao.data, ao.hb) {
			if conn != nil {
				conn.Close()
			}
		}
		if ao.adopt > adopt {
			adopt = ao.adopt
		}
		return nil, adopt, err
	}

	// Dial the successor's data connection (and, with heartbeats, the
	// liveness connection). In generation mode each dialed connection opens
	// with the role+generation handshake and must be accepted by the peer.
	next, dAdopt, err := dialHandshake(succ, preambleData, gen, hb, deadline, rng)
	if dAdopt > adopt {
		adopt = dAdopt
	}
	if err != nil {
		return fail(err)
	}
	opened = append(opened, next)
	var hbNext net.Conn
	if hb {
		hbNext, dAdopt, err = dialHandshake(succ, preambleHeartbeat, gen, hb, deadline, rng)
		if dAdopt > adopt {
			adopt = dAdopt
		}
		if err != nil {
			return fail(err)
		}
		opened = append(opened, hbNext)
	}

	// Wait for the accept side's verdict.
	ao := join(false)
	if ao.err != nil {
		return fail(ao.err)
	}
	prev, hbPrev := ao.data, ao.hb
	opened = append(opened, prev)
	if hbPrev != nil {
		opened = append(opened, hbPrev)
	}

	c := &incarnation{
		rank: rank, n: n, gen: gen,
		members: cfg.Members, digest: membershipDigest(cfg.Members),
		next: next, prev: prev,
		sendJobs: make(chan sendJob), sendErrs: make(chan error, 1),
		sendDone: make(chan struct{}), stop: make(chan struct{}),
	}
	c.nextW = bufio.NewWriterSize(next, 1<<16)
	c.prevR = bufio.NewReaderSize(prev, 1<<16)
	c.stage = make([]float32, 1<<14) // as many bytes as the read buffer
	c.opTO = cfg.OpTimeout
	if c.opTO == 0 {
		c.opTO = DefaultOpTimeout
	}
	c.maxFrame = cfg.MaxFrameBytes
	if c.maxFrame <= 0 {
		c.maxFrame = DefaultMaxFrameBytes
	}
	if hb {
		// Ring confirmation: completing it proves every member of the loop
		// handshook this generation and member set and is still alive — a
		// neighbor that restarted into a newer incarnation after its handshake
		// breaks the round here, before the ring is handed to callers.
		if peerGen, err := c.confirmRing(deadline); err != nil {
			if peerGen > adopt {
				adopt = peerGen
			}
			return fail(fmt.Errorf("ring confirmation: %w", err))
		}
		c.hbNext = &hbLink{conn: hbNext, peer: (rank + 1) % n}
		c.hbPrev = &hbLink{conn: hbPrev, peer: (rank - 1 + n) % n}
		c.hbInterval = cfg.Heartbeat
		go c.pingLoop()
		go c.watchLoop(c.hbPrev)
		go c.watchLoop(c.hbNext)
	}
	go c.senderLoop()
	return c, 0, nil
}

// acceptSide collects and classifies the predecessor's connections for one
// setup attempt: the data stream, plus the heartbeat stream in generation
// mode. Generation-mode connections handshake first — a matching generation
// is accepted ('A'), a mismatch is rejected ('R') carrying the higher of the
// two generations, and a higher announced generation additionally abandons
// the attempt so the caller can adopt it. Malformed handshakes close the
// offending connection and keep listening: a hostile dialer must not be able
// to wedge ring setup.
func acceptSide(ln net.Listener, gen uint64, hb bool, deadline time.Time, stop chan struct{}) acceptOut {
	var out acceptOut
	cleanup := func() {
		for _, c := range []net.Conn{out.data, out.hb} {
			if c != nil {
				c.Close()
			}
		}
		out.data, out.hb = nil, nil
	}
	need := func() bool { return out.data == nil || (hb && out.hb == nil) }
	tl, _ := ln.(*net.TCPListener)
	for need() {
		select {
		case <-stop:
			cleanup()
			out.err = fmt.Errorf("setup attempt abandoned")
			return out
		default:
		}
		if tl != nil {
			poll := time.Now().Add(150 * time.Millisecond)
			if poll.After(deadline) {
				poll = deadline
			}
			tl.SetDeadline(poll)
		}
		c, err := ln.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if time.Now().After(deadline) {
					cleanup()
					out.err = fmt.Errorf("timed out waiting for predecessor")
					return out
				}
				continue
			}
			cleanup()
			out.err = fmt.Errorf("accept: %w", err)
			return out
		}
		if !hb {
			out.data = c
			continue
		}
		// Every accepted connection gets a whole handshake, even one landing
		// in the attempt's last instant: dropping a census probe because the
		// setup budget ran out a millisecond ago would read as a death.
		hsBy := time.Now().Add(2 * time.Second)
		role, peerGen, err := readHandshake(c, hsBy)
		if err != nil {
			c.Close() // hostile or truncated handshake: drop, keep listening
			continue
		}
		if role == hsProbe {
			// Elastic census probe: answer with our generation and keep
			// listening. Answered before the generation check so a probe
			// landing mid-setup reads as "alive", never as a death.
			writeHandshakeReply(c, hsAccept, gen, hsBy)
			c.Close()
			continue
		}
		if role == hsJoin {
			// A joiner found us mid-setup; reject so it retries against a
			// formed member's join point (the payload is its rank, so
			// the generation check below would misfire on it).
			writeHandshakeReply(c, hsReject, gen, hsBy)
			c.Close()
			continue
		}
		if peerGen != gen {
			reject := gen
			if peerGen > reject {
				reject = peerGen
			}
			writeHandshakeReply(c, hsReject, reject, hsBy)
			c.Close()
			if peerGen > gen {
				cleanup()
				out.adopt = peerGen
				out.err = fmt.Errorf("peer announced generation %d > %d", peerGen, gen)
				return out
			}
			continue // stale dialer; it will adopt our generation and retry
		}
		switch {
		case role == preambleData && out.data == nil:
			if err := writeHandshakeReply(c, hsAccept, gen, hsBy); err != nil {
				c.Close()
				continue
			}
			out.data = c
		case role == preambleHeartbeat && out.hb == nil:
			if err := writeHandshakeReply(c, hsAccept, gen, hsBy); err != nil {
				c.Close()
				continue
			}
			out.hb = c
		default:
			c.Close() // duplicate role: drop, keep listening
		}
	}
	return out
}

// dialHandshake dials the successor and, in generation mode, runs the
// role+generation handshake until accepted. A rejection carrying a higher
// generation aborts with that generation for the caller to adopt; a rejection
// at or below our own backs off and redials (the peer is still converging).
func dialHandshake(addr string, role byte, gen uint64, hb bool, deadline time.Time, rng *fxrand.RNG) (net.Conn, uint64, error) {
	for {
		c, err := dialRetry(addr, deadline, rng)
		if err != nil {
			return nil, 0, err
		}
		if !hb {
			return c, 0, nil
		}
		if err := writeHandshake(c, role, gen, deadline); err != nil {
			c.Close()
			return nil, 0, err
		}
		status, peerGen, err := readHandshakeReply(c, deadline)
		if err != nil {
			c.Close()
			if time.Now().After(deadline) {
				return nil, 0, fmt.Errorf("handshake with %s: %w", addr, err)
			}
			// The peer may be mid-restart between incarnations; pause and
			// redial.
			time.Sleep(time.Duration(rng.Int63()%int64(10*time.Millisecond)) + time.Millisecond)
			continue
		}
		if status == hsAccept {
			return c, 0, nil
		}
		c.Close()
		if peerGen > gen {
			return nil, peerGen, fmt.Errorf("handshake rejected: peer at generation %d > %d", peerGen, gen)
		}
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("handshake with %s: rejected at generation %d", addr, gen)
		}
		time.Sleep(time.Duration(rng.Int63()%int64(10*time.Millisecond)) + time.Millisecond)
	}
}

// confirmRing circulates a token around the ring three times: twice stamped
// with the generation, once with the member-list digest. Completing the
// generation rounds proves the whole loop is alive at this generation; a
// mismatched token reports the peer's generation for adoption. A digest
// mismatch means two ranks formed this generation with different ideas of who
// is in the group — a retryable setup failure (no generation to adopt), so
// overlapping elastic reforms self-stabilize instead of exchanging payloads
// across disagreeing rings.
func (c *incarnation) confirmRing(deadline time.Time) (uint64, error) {
	var tok [handshakeLen]byte
	for round, want := range [3]uint64{c.gen, c.gen, c.digest} {
		appendHandshakeInto(tok[:0], confirmMagic, want)
		c.next.SetWriteDeadline(deadline)
		if _, err := c.nextW.Write(tok[:]); err != nil {
			return 0, err
		}
		if err := c.nextW.Flush(); err != nil {
			return 0, err
		}
		c.prev.SetReadDeadline(deadline)
		if _, err := io.ReadFull(c.prevR, tok[:]); err != nil {
			return 0, err
		}
		kind, got, err := parseHandshake(tok[:])
		if err != nil || kind != confirmMagic {
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

// dialRetry dials addr with jittered exponential backoff until it connects
// or the deadline passes. The jitter stream is deterministic (fxrand seeded
// from RingConfig.Seed and the rank), so chaos and recovery runs retry in a
// reproducible pattern while still desynchronizing the ranks' retry storms.
func dialRetry(addr string, deadline time.Time, rng *fxrand.RNG) (net.Conn, error) {
	backoff := 10 * time.Millisecond
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		sleep := backoff/2 + time.Duration(rng.Int63()%int64(backoff))
		if remain := time.Until(deadline); sleep > remain {
			sleep = remain
		}
		time.Sleep(sleep)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// appendHandshakeInto encodes a handshake-format record (kind byte + 8-byte
// big-endian generation) into dst.
func appendHandshakeInto(dst []byte, kind byte, gen uint64) []byte {
	dst = append(dst, kind)
	var g [8]byte
	binary.BigEndian.PutUint64(g[:], gen)
	return append(dst, g[:]...)
}

// parseHandshake decodes a dialer's opening record: role ('G' data or 'H'
// heartbeat) plus generation. Anything else is protocol corruption.
func parseHandshake(b []byte) (kind byte, gen uint64, err error) {
	if len(b) != handshakeLen {
		return 0, 0, fmt.Errorf("%w: handshake record is %d bytes, want %d", ErrCorrupt, len(b), handshakeLen)
	}
	kind = b[0]
	switch kind {
	case preambleData, preambleHeartbeat, confirmMagic, hsProbe, hsJoin:
	default:
		return 0, 0, fmt.Errorf("%w: unknown handshake kind %q", ErrCorrupt, kind)
	}
	return kind, binary.BigEndian.Uint64(b[1:]), nil
}

// parseHandshakeReply decodes an acceptor's reply: accept/reject plus the
// generation the verdict refers to.
func parseHandshakeReply(b []byte) (status byte, gen uint64, err error) {
	if len(b) != handshakeLen {
		return 0, 0, fmt.Errorf("%w: handshake reply is %d bytes, want %d", ErrCorrupt, len(b), handshakeLen)
	}
	status = b[0]
	if status != hsAccept && status != hsReject {
		return 0, 0, fmt.Errorf("%w: unknown handshake reply %q", ErrCorrupt, status)
	}
	return status, binary.BigEndian.Uint64(b[1:]), nil
}

func writeHandshake(c net.Conn, role byte, gen uint64, deadline time.Time) error {
	if err := c.SetWriteDeadline(deadline); err != nil {
		return err
	}
	defer c.SetWriteDeadline(time.Time{})
	_, err := c.Write(appendHandshakeInto(nil, role, gen))
	return err
}

func readHandshake(c net.Conn, deadline time.Time) (byte, uint64, error) {
	b, err := readHandshakeBytes(c, deadline)
	if err != nil {
		return 0, 0, err
	}
	return parseHandshake(b)
}

func writeHandshakeReply(c net.Conn, status byte, gen uint64, deadline time.Time) error {
	if err := c.SetWriteDeadline(deadline); err != nil {
		return err
	}
	defer c.SetWriteDeadline(time.Time{})
	_, err := c.Write(appendHandshakeInto(nil, status, gen))
	return err
}

func readHandshakeReply(c net.Conn, deadline time.Time) (byte, uint64, error) {
	b, err := readHandshakeBytes(c, deadline)
	if err != nil {
		return 0, 0, err
	}
	return parseHandshakeReply(b)
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

func readHandshakeBytes(c net.Conn, deadline time.Time) ([]byte, error) {
	if err := c.SetReadDeadline(handshakeDeadline(deadline)); err != nil {
		return nil, err
	}
	defer c.SetReadDeadline(time.Time{})
	var b [handshakeLen]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return nil, err
	}
	return b[:], nil
}

// pingLoop writes one generation-stamped ping record to each heartbeat
// neighbor every interval. A write failure means the neighbor's socket reset
// — declare it dead rather than waiting for the read side to time out.
func (c *incarnation) pingLoop() {
	ping := appendHandshakeInto(nil, preambleHeartbeat, c.gen)
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
			_, pingGen, perr := parseHandshake(p.buf[:handshakeLen])
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
