package harness

import (
	"errors"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/comm"
)

// runRejoinCase executes the supervised live-rejoin scenario on one transport
// and requires the acceptance contract: bitwise-identical finals, healthy
// ranks keeping their one and only RunWorker call, the group reconvening at
// generation 1, and the rollback landing on the step-3 checkpoint (kill at
// step 5, cadence 3).
func runRejoinCase(t *testing.T, cfg RecoveryConfig) {
	t.Helper()
	res, err := RunScenario(ScenarioRejoin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Fatalf("healed run diverged from the reference: %s", res.Detail)
	}
	n := cfg.Train.Workers
	for rank, launches := range res.Launches {
		want := 1
		if rank == cfg.KillRank {
			want = 2 // first incarnation dies, the supervisor respawns one
		}
		if launches != want {
			t.Fatalf("rank %d launched %d times, want %d (healthy ranks must keep their process)",
				rank, launches, want)
		}
	}
	if res.ResumeStep != 3 {
		t.Fatalf("healed to step %d, want 3", res.ResumeStep)
	}
	if res.Generation != 1 {
		t.Fatalf("healed at generation %d, want 1", res.Generation)
	}
	if res.Heals != n {
		t.Fatalf("%d heal events, want one per rank (%d)", res.Heals, n)
	}
	if res.Reforms < 1 {
		t.Fatalf("group-reform counter did not move (delta %d)", res.Reforms)
	}
	if res.DowntimeMs <= 0 {
		t.Fatalf("downtime %v ms not measured", res.DowntimeMs)
	}
	// Nobody lost a checkpoint directory in this scenario, so the heal must
	// have used own-checkpoint rollback, not a donor transfer.
	if res.TransferBytes != 0 {
		t.Fatalf("unexpected donor transfer of %d bytes; every rank held its own checkpoints",
			res.TransferBytes)
	}
}

func TestRejoinBitwiseHub(t *testing.T) {
	for _, tc := range []struct {
		method string
		mem    bool
	}{
		{"topk", true}, // stateless codec + framework EF memory
		{"dgc", false}, // codec-internal EF state
	} {
		t.Run(tc.method, func(t *testing.T) {
			runRejoinCase(t, DefaultRecovery(TransportHub, tc.method, tc.mem, t.TempDir()))
		})
	}
}

func TestRejoinBitwiseTCP(t *testing.T) {
	for _, tc := range []struct {
		method string
		mem    bool
	}{
		{"topk", true},
		{"dgc", false},
	} {
		t.Run(tc.method, func(t *testing.T) {
			runRejoinCase(t, DefaultRecovery(TransportTCP, tc.method, tc.mem, t.TempDir()))
		})
	}
}

// TestRejoinBitwiseAutotune runs the live-rejoin scenario with the workers in
// autotuning mode on both transports: the heal rolls the policy state back
// with the params, and the healed finals must carry an identical policy
// trajectory to the uninterrupted reference.
func TestRejoinBitwiseAutotune(t *testing.T) {
	for _, transport := range []string{TransportHub, TransportTCP} {
		t.Run(transport, func(t *testing.T) {
			cfg := AutotuneRecovery(transport, t.TempDir())
			runRejoinCase(t, cfg)
		})
	}
}

// TestRejoinHangTCP: the victim freezes (hung sockets, heartbeats stop)
// instead of dying fast — the survivors must convict it via heartbeat loss
// and heal exactly the same way.
func TestRejoinHangTCP(t *testing.T) {
	cfg := DefaultRecovery(TransportTCP, "topk", true, t.TempDir())
	cfg.KillMode = "hang"
	runRejoinCase(t, cfg)
}

// TestRejoinSkipsCorruptCheckpoint: rank 0's newest checkpoint (step 6) is
// corrupted before the heal that follows a kill at step 7. Rank 0 cannot load
// it, so it does not offer it, and the group rolls back to step 3 — the
// newest step every rank can load — and still finishes bitwise-equal to the
// reference instead of agreeing on a step one rank then fails to load.
func TestRejoinSkipsCorruptCheckpoint(t *testing.T) {
	cfg := DefaultRecovery(TransportHub, "topk", true, t.TempDir())
	cfg.KillStep = 7
	ref, err := runReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGroup(cfg, ScenarioRejoin, cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := func(rank int) rankOpts {
		o := g.victimOnly(rank)
		if o.victim {
			// Runs before the kill: every rank has finished step 6, so
			// rank 0's step-6 file is durable and no heal has started.
			o.onStep = func(step int64) {
				if step != cfg.KillStep {
					return
				}
				path := g.store.Path(0, 6)
				b, err := os.ReadFile(path)
				if err == nil {
					b[len(b)/2] ^= 0x40
					err = os.WriteFile(path, b, 0o644)
				}
				if err != nil {
					t.Error(err)
				}
			}
		}
		return o
	}
	err = g.launch("rejoin", 20*time.Second, opts, func() { g.replaceVictim(rankOpts{resume: true}) })
	if err != nil {
		t.Fatal(err)
	}
	if err := g.check("rejoin", true, true); err != nil {
		t.Fatal(err)
	}
	if len(g.heals) != cfg.Train.Workers {
		t.Fatalf("%d heal events, want one per rank", len(g.heals))
	}
	for _, h := range g.heals {
		if h.step != 3 {
			t.Fatalf("healed to step %d, want 3 (rank 0's step 6 does not load)", h.step)
		}
	}
	if ok, detail := snapshotsBitwiseEqual(g.finals, ref); !ok {
		t.Fatalf("healed run diverged from the reference: %s", detail)
	}
}

// TestRejoinValidation: the battery owns the trainer's Checkpoint/OnStep/
// Rejoin hooks and must reject configs that try to supply their own.
func TestRejoinValidation(t *testing.T) {
	cfg := DefaultRecovery(TransportHub, "topk", true, t.TempDir())
	cfg.Train.OnStep = func(int, int64) error { return nil }
	if _, err := RunScenario(ScenarioRejoin, cfg); err == nil {
		t.Fatal("config with a caller OnStep must be rejected")
	}
	cfg = DefaultRecovery(TransportHub, "topk", true, t.TempDir())
	cfg.Every = 0
	if _, err := RunScenario(ScenarioRejoin, cfg); err == nil {
		t.Fatal("config without a checkpoint cadence must be rejected")
	}
}

// TestScaffoldHoldsKilledRankSocket: the TCP scaffold keeps every rank's
// socket for the group's life. While a rejoin victim is down its port stays
// bound — nothing else can take it — and the respawn serves the same socket;
// a shrink victim never returns, so its socket is released with its death and
// a dial to it is refused.
func TestScaffoldHoldsKilledRankSocket(t *testing.T) {
	for _, s := range []Scenario{ScenarioRejoin, ScenarioShrink} {
		t.Run(string(s), func(t *testing.T) {
			cfg := DefaultRecovery(TransportTCP, "topk", true, t.TempDir())
			sc, err := newFaultScaffold(&cfg, s)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.release()
			n, victim := cfg.Train.Workers, cfg.KillRank
			colls := make([]comm.Collective, n)
			dies := make([]func(), n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for rank := range colls {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					colls[rank], dies[rank], errs[rank] = sc.collFor(rank)
				}(rank)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			defer sc.teardown()
			dies[victim]()

			if s == ScenarioShrink {
				if c, err := net.DialTimeout("tcp", sc.addrs[victim], time.Second); !errors.Is(err, syscall.ECONNREFUSED) {
					if c != nil {
						c.Close()
					}
					t.Fatalf("dial to the dead shrink victim: %v, want a refusal", err)
				}
				return
			}
			if ln, err := net.Listen("tcp", sc.addrs[victim]); !errors.Is(err, syscall.EADDRINUSE) {
				if ln != nil {
					ln.Close()
				}
				t.Fatalf("bind of the down victim's port: %v, want EADDRINUSE", err)
			}
			// The survivors reform while the respawn dials in on the held
			// socket; the healed group then sums correctly.
			for rank := range colls {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					if rank == victim {
						colls[rank], _, errs[rank] = sc.collFor(rank)
						return
					}
					_, errs[rank] = colls[rank].(comm.Reformer).Reform()
				}(rank)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			sums := make([][]float32, n)
			for rank := range colls {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					sums[rank] = []float32{float32(rank + 1)}
					errs[rank] = colls[rank].AllreduceF32(sums[rank])
				}(rank)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			for rank, x := range sums {
				if x[0] != float32(n*(n+1)/2) {
					t.Fatalf("rank %d healed sum %v, want %d", rank, x[0], n*(n+1)/2)
				}
			}
		})
	}
}
