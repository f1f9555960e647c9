package harness

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/grace"
)

// faultScaffold bundles the transport-specific pieces of a supervised fault
// scenario, so each scenario describes only what happens to the group, not
// how to sever or add a rank on each substrate.
type faultScaffold struct {
	// collFor builds one rank's collective and its death action. On TCP the
	// action severs the victim's sockets with no goodbye handshake (Kill, not
	// Close — Close's orderly bye would make the survivors treat the departure
	// as graceful), or freezes them open in "hang" mode so the conviction must
	// come through the heartbeat miss window. On the hub there is no wire to
	// sever: the supervisor delivers the liveness verdict itself, with the
	// same sentinel a transport's heartbeat layer would produce.
	collFor func(rank int) (comm.Collective, func(), error)
	// teardown force-releases the whole group when the phase watchdog fires.
	teardown func()
	// join builds a fresh joiner's collective: the hub registers a pending
	// join and returns a handle whose JoinGroup blocks until absorbed; TCP
	// dials the group's join point and blocks until the members' ReformGrow
	// completes.
	join func(rank int, wait time.Duration) (comm.Collective, error)
	// pending reports the original ranks currently registered as joiners, as
	// visible to any live member — the grow supervisor polls it to know a
	// join request has landed before releasing the gate.
	pending func() []int
	// release frees what the group held for its life (TCP: every rank's
	// socket) once no rank runs any more.
	release func()
	// addrs is every rank's address on TCP (nil on the hub).
	addrs []string
}

// newFaultScaffold assembles the scaffold for one group of a supervised
// scenario s. Each call builds a fresh group of cfg.Train.Workers ranks.
func newFaultScaffold(cfg *RecoveryConfig, s Scenario) (*faultScaffold, error) {
	n := cfg.Train.Workers
	if cfg.Transport != TransportTCP {
		hub := comm.NewHub(n)
		hub.SetReformTimeout(scenarioWatchdog)
		die := func() {
			hub.Abort(fmt.Errorf("supervisor: rank %d process died: %w", cfg.KillRank, comm.ErrPeerDead))
		}
		return &faultScaffold{
			collFor: func(rank int) (comm.Collective, func(), error) {
				return hub.Worker(rank), die, nil
			},
			teardown: func() {
				hub.Abort(fmt.Errorf("harness watchdog teardown: %w", comm.ErrPeerDead))
			},
			join: func(rank int, _ time.Duration) (comm.Collective, error) {
				return hub.Join(rank)
			},
			pending: func() []int { return hub.Worker(0).PendingJoins() },
			release: func() {},
		}, nil
	}

	// The scaffold owns every rank's socket for the group's life: it binds
	// each once and hands every incarnation of the rank — founder, respawn,
	// joiner — its own listener of a kept descriptor, so a killed rank's
	// port stays bound until its respawn serves it. A victim that never
	// returns (every scenario but rejoin and grow) has its socket released
	// as it dies, so the survivors' census is refused at once instead of
	// waiting out a silent socket.
	socks := make([]*os.File, n)
	addrs := make([]string, n)
	release := func() {
		for _, f := range socks {
			if f != nil {
				f.Close()
			}
		}
	}
	for i := range socks {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err == nil {
			addrs[i] = ln.Addr().String()
			socks[i], err = ln.(*net.TCPListener).File()
			ln.Close()
		}
		if err != nil {
			release()
			return nil, err
		}
	}
	returns := s == ScenarioRejoin || s == ScenarioGrow
	var mu sync.Mutex
	var rings []*comm.TCPRing
	// open builds one incarnation of rank with dial (DialTCPRingConfig or a
	// JoinTCPRing) on its own listener of the rank's socket.
	open := func(rank int, dial func(comm.RingConfig) (*comm.TCPRing, error)) (*comm.TCPRing, error) {
		rc := cfg.ringConfig(rank, addrs)
		ln, err := net.FileListener(socks[rank])
		if err != nil {
			return nil, err
		}
		rc.Listener = ln
		ring, err := dial(rc)
		if err == nil {
			mu.Lock()
			rings = append(rings, ring)
			mu.Unlock()
		}
		return ring, err
	}
	return &faultScaffold{
		collFor: func(rank int) (comm.Collective, func(), error) {
			ring, err := open(rank, comm.DialTCPRingConfig)
			switch {
			case err != nil:
				return nil, nil, err
			case cfg.KillMode == "hang":
				return ring, ring.Hang, nil
			case returns:
				return ring, ring.Kill, nil
			}
			return ring, func() {
				ring.Kill()
				socks[rank].Close()
			}, nil
		},
		teardown: func() {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range rings {
				r.Kill()
			}
		},
		join: func(rank int, wait time.Duration) (comm.Collective, error) {
			ring, err := open(rank, func(rc comm.RingConfig) (*comm.TCPRing, error) {
				return comm.JoinTCPRing(rc, wait)
			})
			if err != nil {
				return nil, err
			}
			return ring, nil
		},
		pending: func() []int {
			mu.Lock()
			defer mu.Unlock()
			var out []int
			for _, r := range rings {
				out = append(out, r.PendingJoins()...)
			}
			return out
		},
		release: release,
		addrs:   addrs,
	}, nil
}

// group is one supervised set of RunWorker calls over one collective group:
// the transport scaffold, how its ranks are wired, and what they reported.
// Every phase of every scenario — reference, crash, restart, heal, shrink,
// grow — is one group.
type group struct {
	cfg RecoveryConfig // cfg.Train.Workers is this group's size
	// scenario selects the trainer's recovery wiring: Heal for every
	// scenario but restart, Elastic on top for shrink and grow.
	scenario Scenario
	store    recordingStore // every rank's checkpoints, in the group's root
	sc       *faultScaffold // built by launch, for its duration

	// finals and errs are per rank, written by that rank's goroutine and
	// read after launch returns. errs holds the first incarnation's RunWorker
	// error; a replacement victim's lands in replErr.
	finals     []*grace.Snapshot
	errs       []error
	replErr    error
	victimDown chan struct{} // closed when KillRank's first incarnation returns

	mu       sync.Mutex
	launches []int
	killT    time.Time
	heals    []healEvent
	resizes  []resizeEvent
	maxStep  int64 // highest step a gated survivor completed (grow)
}

// healEvent and resizeEvent record one rank's OnHeal / OnResize callback.
type healEvent struct {
	gen  uint64
	step int64
	at   time.Time
}

type resizeEvent struct {
	m    comm.Membership
	step int64
	at   time.Time
}

// recordingStore is the Store every scenario rank writes through: the
// group's checkpoint directory, plus each rank's newest snapshot kept in
// memory as the finals the verdict compares.
type recordingStore struct {
	*ckpt.Dir
	finals []*grace.Snapshot
}

func (r recordingStore) Save(s *grace.Snapshot) error {
	r.finals[s.Rank] = s
	return r.Dir.Save(s)
}

// newGroup builds a group checkpointing into dir.
func newGroup(cfg RecoveryConfig, s Scenario, dir string) (*group, error) {
	d, err := ckpt.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	d.Keep = scenarioKeep
	n := cfg.Train.Workers
	g := &group{
		cfg: cfg, scenario: s,
		finals: make([]*grace.Snapshot, n), errs: make([]error, n),
		launches: make([]int, n), victimDown: make(chan struct{}),
	}
	g.store = recordingStore{Dir: d, finals: g.finals}
	return g, nil
}

// rankOpts is what distinguishes one RunWorker launch from another inside a
// group.
type rankOpts struct {
	resume bool // Checkpoint.Resume: restart, respawn, shrink reference
	joiner bool // Elastic.JoinOnStart over the scaffold's join point
	victim bool // dies right after KillStep
	// onStep, when set, observes every completed step (before any kill): the
	// downtime measurement and the grow gate hang off it.
	onStep func(step int64)
}

// victimOnly is the rank description of a plain faulted phase: KillRank dies,
// everyone else just trains.
func (g *group) victimOnly(rank int) rankOpts {
	return rankOpts{victim: rank == g.cfg.KillRank}
}

// runRank is the one place a scenario rank is wired: collective →
// CheckpointConfig → ElasticConfig → kill/observe hook → RunWorker.
func (g *group) runRank(rank int, o rankOpts) error {
	g.mu.Lock()
	g.launches[rank]++
	g.mu.Unlock()
	var coll comm.Collective
	var die func()
	var err error
	if o.joiner {
		coll, err = g.sc.join(rank, scenarioWatchdog)
	} else {
		coll, die, err = g.sc.collFor(rank)
	}
	if err != nil {
		return err
	}
	if c, ok := coll.(io.Closer); ok {
		defer c.Close()
	}

	tc := g.cfg.Train
	tc.Checkpoint = &grace.CheckpointConfig{
		Store:  g.store,
		Every:  g.cfg.Every,
		Resume: o.resume,
		Heal:   g.scenario != ScenarioRestart,
		OnHeal: func(gen uint64, step int64) {
			g.mu.Lock()
			g.heals = append(g.heals, healEvent{gen, step, time.Now()})
			g.mu.Unlock()
		},
	}
	if g.scenario == ScenarioShrink || g.scenario == ScenarioGrow {
		// The joiner's deadline also bounds its JoinGroup wait — give it the
		// whole phase budget, since absorption needs the members to reach
		// their next step boundary first.
		deadline := scenarioRejoinDeadline
		if o.joiner {
			deadline = scenarioWatchdog
		}
		tc.Elastic = &grace.ElasticConfig{
			RejoinDeadline: deadline,
			JoinOnStart:    o.joiner,
			OnResize: func(m comm.Membership, step int64) {
				g.mu.Lock()
				g.resizes = append(g.resizes, resizeEvent{m, step, time.Now()})
				g.mu.Unlock()
			},
		}
	}
	if o.victim || o.onStep != nil {
		tc.OnStep = func(_ int, step int64) error {
			if o.onStep != nil {
				o.onStep(step)
			}
			if o.victim && step == g.cfg.KillStep {
				g.mu.Lock()
				g.killT = time.Now()
				g.mu.Unlock()
				// Sever this rank's presence the way a process death would,
				// then stop.
				die()
				return ErrSimulatedCrash
			}
			return nil
		}
	}
	_, err = grace.RunWorker(tc, rank, coll, tc.Cluster())
	return err
}

// launch builds the group's transport scaffold, runs every rank of the group
// (opts describes each) plus an optional supervisor, and waits for all of
// them under the watchdog — the one place a scenario can time out — before
// releasing the scaffold. what names the phase in errors. The returned error
// is the scaffold's or the watchdog's; the ranks' own outcomes are judged by
// check.
func (g *group) launch(what string, timeout time.Duration, opts func(rank int) rankOpts, supervisor func()) error {
	sc, err := newFaultScaffold(&g.cfg, g.scenario)
	if err != nil {
		return err
	}
	defer sc.release()
	g.sc = sc
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for rank := range g.errs {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				g.errs[rank] = g.runRank(rank, opts(rank))
				if rank == g.cfg.KillRank {
					close(g.victimDown)
				}
			}(rank)
		}
		if supervisor != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				supervisor()
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		g.sc.teardown()
		<-done
		return fmt.Errorf("harness: %s phase watchdog fired after %v", what, timeout)
	}
}

// replaceVictim is the supervisor's half of rejoin and grow: once the
// victim's first incarnation is down — for the right reason; check reports a
// wrong one — launch its replacement into the same group.
func (g *group) replaceVictim(o rankOpts) {
	<-g.victimDown
	if errors.Is(g.errs[g.cfg.KillRank], ErrSimulatedCrash) {
		g.replErr = g.runRank(g.cfg.KillRank, o)
	}
}

// check judges a finished phase. With victim set, KillRank's first
// incarnation must have died of the simulated crash; every other launch —
// including the victim's replacement when replaced is set — must have
// finished cleanly, and each healthy rank must have kept its one and only
// RunWorker call.
func (g *group) check(what string, victim, replaced bool) error {
	for rank, err := range g.errs {
		want := 1
		if victim && rank == g.cfg.KillRank {
			if !errors.Is(err, ErrSimulatedCrash) {
				return fmt.Errorf("harness: %s: victim rank %d exited with %v, want the simulated crash", what, rank, err)
			}
			if replaced {
				want, err = 2, g.replErr
			} else {
				err = nil
			}
		}
		if err != nil {
			return fmt.Errorf("harness: %s rank %d: %w", what, rank, err)
		}
		if g.launches[rank] != want {
			return fmt.Errorf("harness: %s: rank %d launched %d times, want %d (healthy ranks must keep their process)",
				what, rank, g.launches[rank], want)
		}
	}
	return nil
}

// lastResize returns the newest committed membership change whose size
// satisfies match, as reported by any rank's OnResize.
func (g *group) lastResize(match func(size int) bool) (ev resizeEvent, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, e := range g.resizes {
		if match(e.m.Size()) {
			ev, ok = e, true
		}
	}
	return ev, ok
}
