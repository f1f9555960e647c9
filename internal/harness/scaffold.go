package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
)

// scaffoldKind selects which collective substrate flavor a supervised fault
// scenario runs on top of.
type scaffoldKind int

const (
	// scaffoldRestart is the one-shot group: a crash poisons it for good and
	// recovery is a full restart of every rank (RunRecovery).
	scaffoldRestart scaffoldKind = iota
	// scaffoldReform is the resilient self-healing group: survivors reform at
	// the next generation in place (RunRejoin).
	scaffoldReform
	// scaffoldElastic is the elastic-membership group: survivors may commit a
	// smaller world size and absorb joiners back later (RunElastic).
	scaffoldElastic
)

// faultScaffold bundles the transport-specific pieces shared by the restart,
// rejoin, and elastic batteries, so each battery describes only its scenario,
// not how to sever a rank on each substrate.
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
	// hub is non-nil on the hub transport; elastic grow scenarios register
	// fresh joiners through it.
	hub *comm.Hub
	// join (elastic kind only) builds a fresh joiner's collective: the hub
	// registers a pending join and returns a handle whose JoinGroup blocks
	// until absorbed; TCP dials the group's join point and blocks until the
	// members' ReformGrow completes.
	join func(rank int, wait time.Duration) (comm.Collective, error)
	// pending (elastic kind only) reports the original ranks currently
	// registered as joiners, as visible to any live member — the supervisor
	// polls it to know a join request has landed before releasing the gate.
	pending func() []int
}

// newFaultScaffold assembles the scaffold for one phase of a supervised
// scenario. Each call builds a fresh group.
func newFaultScaffold(cfg *RecoveryConfig, kind scaffoldKind) (*faultScaffold, error) {
	n := cfg.Train.Workers
	if cfg.Transport != TransportTCP {
		hub := comm.NewHub(n)
		sc := &faultScaffold{hub: hub}
		if kind == scaffoldRestart {
			abort := func() {
				hub.Abort(fmt.Errorf("supervisor: rank %d declared dead: %w", cfg.KillRank, ErrSimulatedCrash))
			}
			sc.collFor = func(rank int) (comm.Collective, func(), error) {
				return hub.Worker(rank), abort, nil
			}
			sc.teardown = abort
			return sc, nil
		}
		hub.SetReformTimeout(cfg.watchdog())
		die := func() {
			hub.Abort(fmt.Errorf("supervisor: rank %d process died: %w", cfg.KillRank, comm.ErrPeerDead))
		}
		sc.collFor = func(rank int) (comm.Collective, func(), error) {
			return hub.Worker(rank), die, nil
		}
		sc.teardown = func() {
			hub.Abort(fmt.Errorf("harness watchdog teardown: %w", comm.ErrPeerDead))
		}
		if kind == scaffoldElastic {
			sc.join = func(rank int, _ time.Duration) (comm.Collective, error) {
				return hub.Join(rank)
			}
			sc.pending = func() []int {
				return hub.Worker(0).PendingJoins()
			}
		}
		return sc, nil
	}

	addrs, err := freeLoopbackAddrs(n)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var rings []*comm.TCPRing
	sc := &faultScaffold{}
	sc.collFor = func(rank int) (comm.Collective, func(), error) {
		ring, err := comm.DialTCPRingConfig(cfg.ringConfig(rank, addrs))
		if err != nil {
			return nil, nil, err
		}
		mu.Lock()
		rings = append(rings, ring)
		mu.Unlock()
		die := ring.Kill
		if cfg.KillMode == "hang" {
			die = ring.Hang
		}
		return ring, die, nil
	}
	sc.teardown = func() {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range rings {
			if kind == scaffoldRestart {
				r.Close()
			} else {
				r.Kill()
			}
		}
	}
	if kind == scaffoldElastic {
		sc.join = func(rank int, wait time.Duration) (comm.Collective, error) {
			ring, err := comm.JoinTCPRing(cfg.ringConfig(rank, addrs), wait)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			rings = append(rings, ring)
			mu.Unlock()
			return ring, nil
		}
		sc.pending = func() []int {
			mu.Lock()
			defer mu.Unlock()
			var out []int
			for _, r := range rings {
				out = append(out, r.PendingJoins()...)
			}
			return out
		}
	}
	return sc, nil
}
