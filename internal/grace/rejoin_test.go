package grace_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/grace"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

var errSimulatedCrash = errors.New("simulated crash")

type healEvent struct {
	rank int
	gen  uint64
	step int64
}

// runRejoinScenario runs cfg over a hub with the self-healing path enabled,
// crashes killRank right after killStep, poisons the group the way a real
// transport's liveness layer would (comm.ErrPeerDead), and respawns only the
// victim with Resume. wipedDir, when non-empty, is a fresh checkpoint root
// for the respawned rank — the donor-state-transfer scenario. It returns each
// rank's final snapshot plus the per-rank OnHeal events.
func runRejoinScenario(t *testing.T, cfg grace.Config, dir string, every int,
	killRank int, killStep int64, wipedDir string) ([]*grace.Snapshot, []healEvent) {
	t.Helper()
	hub := comm.NewHub(cfg.Workers)
	hub.SetReformTimeout(30 * time.Second)
	cluster := simnet.NewCluster(cfg.Net, cfg.Workers)
	finals := make([]*grace.Snapshot, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var mu sync.Mutex
	var heals []healEvent

	store := openRecordingStore(t, dir, finals)
	mkCfg := func(rank int, store grace.Store, killAt int64, respawn bool) grace.Config {
		c := cfg
		c.Checkpoint = &grace.CheckpointConfig{
			Store:  store,
			Every:  every,
			Resume: respawn,
			Heal:   true,
			OnHeal: func(gen uint64, step int64) {
				mu.Lock()
				heals = append(heals, healEvent{rank: rank, gen: gen, step: step})
				mu.Unlock()
			},
		}
		if killAt > 0 {
			c.OnStep = func(_ int, step int64) error {
				if step == killAt {
					return errSimulatedCrash
				}
				return nil
			}
		}
		return c
	}

	died := make(chan struct{})
	var wg sync.WaitGroup
	for rank := 0; rank < cfg.Workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			killAt := int64(0)
			if rank == killRank {
				killAt = killStep
			}
			_, err := grace.RunWorker(mkCfg(rank, store, killAt, false), rank, hub.Worker(rank), cluster)
			if rank == killRank {
				if !errors.Is(err, errSimulatedCrash) {
					errs[rank] = fmt.Errorf("victim exited with %v, want the simulated crash", err)
				}
				close(died)
				return
			}
			errs[rank] = err
		}(rank)
	}

	// Supervisor: once the victim is down, deliver the liveness verdict to the
	// group and respawn only the dead rank. The survivors' goroutines keep
	// their original RunWorker call — that is the whole point of rejoin.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-died
		hub.Abort(fmt.Errorf("rank %d process died: %w", killRank, comm.ErrPeerDead))
		respawnStore := store
		if wipedDir != "" {
			respawnStore = openRecordingStore(t, wipedDir, finals)
		}
		_, errs[killRank] = grace.RunWorker(mkCfg(killRank, respawnStore, 0, true), killRank, hub.Worker(killRank), cluster)
	}()
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return finals, heals
}

// TestTrainerRejoinBitwise: a mid-run rank death healed by generation reform
// plus rollback-to-common-step must finish with every rank's weights bitwise
// identical to the uninterrupted run — with the healthy ranks never leaving
// their original RunWorker call. Covers the framework-EF topk path and the
// codec-stateful dgc path (both roll back to their OWN checkpoints, so
// per-rank divergent state is fully restored).
func TestTrainerRejoinBitwise(t *testing.T) {
	cases := []struct {
		method string
		mem    bool
	}{
		{"topk", true},
		{"dgc", false},
	}
	for _, tc := range cases {
		t.Run(tc.method, func(t *testing.T) {
			cfg := ckptConfig(tc.method, tc.mem)
			want := runCheckpointed(t, cfg, t.TempDir(), 3, false)

			// Checkpoints at steps 3 and 6 of 8; kill right after step 5 so
			// the group rolls back to 3 and replays two already-done steps.
			got, heals := runRejoinScenario(t, cfg, t.TempDir(), 3, 1, 5, "")
			assertSnapshotsBitwiseEqual(t, got, want, tc.method)
			if len(heals) != cfg.Workers {
				t.Fatalf("heal events = %+v, want one per rank", heals)
			}
			for _, h := range heals {
				if h.gen != 1 || h.step != 3 {
					t.Fatalf("heal event %+v, want generation 1 at step 3", h)
				}
			}
		})
	}
}

// TestTrainerRejoinDonorTransfer: when the respawned rank lost its checkpoint
// directory, it adopts the donor's snapshot over the collective. With no
// per-rank divergent state (EF memory off, stateless deterministic codec) the
// adopted state equals what the rank's own checkpoint would have held, so the
// run still finishes bitwise identical to the uninterrupted reference — and
// the state-transfer byte counter moves.
func TestTrainerRejoinDonorTransfer(t *testing.T) {
	cfg := ckptConfig("topk", false)
	want := runCheckpointed(t, cfg, t.TempDir(), 3, false)

	telemetry.Default.Enable(true)
	defer telemetry.Default.Enable(false)
	before := telemetry.Default.Value(telemetry.CtrRejoinTransferBytes)
	got, heals := runRejoinScenario(t, cfg, t.TempDir(), 3, 1, 5, t.TempDir())
	assertSnapshotsBitwiseEqual(t, got, want, "donor-transfer")
	if len(heals) != cfg.Workers {
		t.Fatalf("heal events = %+v, want one per rank", heals)
	}
	if d := telemetry.Default.Value(telemetry.CtrRejoinTransferBytes) - before; d <= 0 {
		t.Fatalf("rejoin transfer bytes delta = %d, want > 0", d)
	}
}

// TestTrainerRejoinRequiresCheckpoints: a heal with no recovery point
// anywhere fails with a descriptive error instead of looping, while a resume
// with none starts the group fresh, as if Resume were off.
func TestTrainerRejoinRequiresCheckpoints(t *testing.T) {
	cfg := ckptConfig("topk", true)
	cfg.Workers = 2
	hub := comm.NewHub(2)
	store := openRecordingStore(t, t.TempDir(), make([]*grace.Snapshot, 2))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := cfg
			c.Checkpoint = &grace.CheckpointConfig{Store: store, Every: 3, Heal: true}
			if rank == 0 {
				// The peer death is convicted before the first checkpoint.
				c.OnStep = func(_ int, step int64) error {
					if step == 1 {
						hub.Abort(fmt.Errorf("test: peer died: %w", comm.ErrPeerDead))
					}
					return nil
				}
			}
			_, errs[rank] = grace.RunWorker(c, rank, hub.Worker(rank), simnet.NewCluster(c.Net, 2))
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "no rank holds a checkpoint") {
			t.Fatalf("rank %d err = %v, want the no-recovery-point rejection", rank, err)
		}
	}

	cfg = ckptConfig("topk", true)
	want := runCheckpointed(t, cfg, t.TempDir(), 3, false)
	got := runCheckpointed(t, cfg, t.TempDir(), 3, true)
	assertSnapshotsBitwiseEqual(t, got, want, "resume with no checkpoints")
}

// TestEnginePauseGuard: a paused engine refuses Step, and Resume restores it.
func TestEnginePauseGuard(t *testing.T) {
	eng, err := grace.NewEngine(
		grace.WithCollective(comm.Serial{}),
		grace.WithCompressorFactory(func() (grace.Compressor, error) {
			return grace.New("none", grace.Options{})
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Pause(); err != nil {
		t.Fatalf("pause at rest: %v", err)
	}
	if _, _, err := eng.Step(nil, nil); err == nil || !strings.Contains(err.Error(), "paused") {
		t.Fatalf("paused Step err = %v, want the pause rejection", err)
	}
	eng.Resume()
	if _, _, err := eng.Step(nil, nil); err != nil {
		t.Fatalf("resumed Step: %v", err)
	}
}
