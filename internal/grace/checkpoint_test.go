package grace_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/data"
	"repro/internal/grace"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// ckptConfig is a tiny run sized so checkpoints land mid-epoch: 3 workers ×
// 4 iters/epoch × 2 epochs = 8 lockstep steps.
func ckptConfig(method string, mem bool) grace.Config {
	ds := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 8, W: 8, N: 96, Noise: 0.3, Seed: 5})
	return grace.Config{
		Workers:   3,
		BatchSize: 8,
		Epochs:    2,
		Seed:      11,
		NewModel: func(seed uint64) grace.Model {
			return models.NewMLPClassifier(seed, 64, []int{24}, 4)
		},
		Dataset:      ds,
		NewOptimizer: func() optim.Optimizer { return optim.NewMomentumSGD(0.05, 0.9) },
		NewCompressor: func(rank int) (grace.Compressor, error) {
			return grace.New(method, grace.Options{Seed: uint64(rank) + 1, Ratio: 0.25, Levels: 8})
		},
		UseMemory:        mem,
		CodecParallelism: 2,
		Net:              simnet.TCP10G,
	}
}

// recordingStore is the Store the tests run through: a checkpoint directory,
// plus every rank's newest snapshot kept in memory as the finals a test
// compares.
type recordingStore struct {
	*ckpt.Dir
	finals []*grace.Snapshot
}

func (r recordingStore) Save(s *grace.Snapshot) error {
	r.finals[s.Rank] = s
	return r.Dir.Save(s)
}

func openRecordingStore(t *testing.T, dir string, finals []*grace.Snapshot) recordingStore {
	t.Helper()
	d, err := ckpt.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return recordingStore{Dir: d, finals: finals}
}

// runRanks drives RunWorker for every rank over one hub with ck over a
// checkpoint directory, returning each rank's final snapshot.
func runRanks(t *testing.T, cfg grace.Config, dir string, ck grace.CheckpointConfig) []*grace.Snapshot {
	t.Helper()
	hub := comm.NewHub(cfg.Workers)
	cluster := simnet.NewCluster(cfg.Net, cfg.Workers)
	finals := make([]*grace.Snapshot, cfg.Workers)
	ck.Store = openRecordingStore(t, dir, finals)
	cfg.Checkpoint = &ck
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for rank := 0; rank < cfg.Workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_, errs[rank] = grace.RunWorker(cfg, rank, hub.Worker(rank), cluster)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return finals
}

// runCheckpointed runs every rank checkpointing into dir; with resume set
// they first roll back to the newest step dir holds for all of them.
func runCheckpointed(t *testing.T, cfg grace.Config, dir string, every int, resume bool) []*grace.Snapshot {
	t.Helper()
	return runRanks(t, cfg, dir, grace.CheckpointConfig{Every: every, Resume: resume})
}

// seedStore copies the given ranks' checkpoints at step from src into a fresh
// directory, so a resume from it rolls back to exactly that step.
func seedStore(t *testing.T, src string, ranks []int, step int64) string {
	t.Helper()
	from, err := ckpt.OpenDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	to, err := ckpt.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range ranks {
		s, err := from.Load(rank, step)
		if err != nil {
			t.Fatalf("loading rank %d step %d: %v", rank, step, err)
		}
		if err := to.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// oneSnapshot is a Store that hands its one snapshot to whichever rank asks:
// how a test puts a mismatched snapshot in front of the sync round.
type oneSnapshot struct{ s *grace.Snapshot }

func (o oneSnapshot) Save(*grace.Snapshot) error               { return nil }
func (o oneSnapshot) Steps(int) ([]int64, error)               { return []int64{o.s.Step}, nil }
func (o oneSnapshot) Load(int, int64) (*grace.Snapshot, error) { return o.s, nil }
func (o oneSnapshot) Encode(s *grace.Snapshot) []byte          { return ckpt.Encode(s) }
func (o oneSnapshot) Decode(b []byte) (*grace.Snapshot, error) { return ckpt.Decode(b) }

func assertSnapshotsBitwiseEqual(t *testing.T, got, want []*grace.Snapshot, label string) {
	t.Helper()
	for rank := range want {
		g, w := got[rank], want[rank]
		if g.Step != w.Step {
			t.Fatalf("%s: rank %d final step %d, want %d", label, rank, g.Step, w.Step)
		}
		for i := range w.Params {
			for j := range w.Params[i].Data {
				gb := math.Float32bits(g.Params[i].Data[j])
				wb := math.Float32bits(w.Params[i].Data[j])
				if gb != wb {
					t.Fatalf("%s: rank %d param %s[%d]: %08x != %08x",
						label, rank, w.Params[i].Name, j, gb, wb)
				}
			}
		}
	}
}

// TestTrainerCheckpointResumeBitwise: for every registered method, with
// framework EF as Table I runs it, a run restored from its on-disk mid-run
// checkpoint must finish with weights bitwise identical to the uninterrupted
// run — through the full ckpt encode→fsync→decode path, mid-epoch and at an
// epoch boundary. Codec state of every kind crosses it: EF residuals,
// per-tensor vectors (dgc, signum, powersgd) and random streams.
func TestTrainerCheckpointResumeBitwise(t *testing.T) {
	for _, meta := range grace.All() {
		t.Run(meta.Name, func(t *testing.T) {
			cfg := ckptConfig(meta.Name, meta.DefaultEF && !meta.BuiltinEF)
			refDir := t.TempDir()
			want := runCheckpointed(t, cfg, refDir, 3, false)

			// Checkpoints exist at steps 3 and 6 (every=3, 8 steps total);
			// resume from each — step 3 is mid-epoch 0, step 6 is mid-epoch 1.
			for _, step := range []int64{3, 6} {
				dir := seedStore(t, refDir, []int{0, 1, 2}, step)
				got := runCheckpointed(t, cfg, dir, 3, true)
				assertSnapshotsBitwiseEqual(t, got, want, meta.Name)
			}
		})
	}
}

// TestTrainerCheckpointResumeLocalSGD: the sync point and since-sync counter
// survive a resume in local-SGD mode.
func TestTrainerCheckpointResumeLocalSGD(t *testing.T) {
	cfg := ckptConfig("topk", true)
	cfg.SyncEvery = 3 // sync boundaries at steps 3 and 6; checkpoint every 2
	refDir := t.TempDir()
	want := runCheckpointed(t, cfg, refDir, 2, false)

	// Step 4: mid sync-window (sinceSync = 1).
	dir := seedStore(t, refDir, []int{0, 1, 2}, 4)
	d, err := ckpt.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < cfg.Workers; rank++ {
		s, err := d.Load(rank, 4)
		if err != nil {
			t.Fatal(err)
		}
		if s.SinceSync != 1 {
			t.Fatalf("rank %d step 4 sinceSync = %d, want 1", rank, s.SinceSync)
		}
		if s.SyncPoint == nil {
			t.Fatalf("rank %d snapshot lacks a sync point", rank)
		}
	}
	got := runCheckpointed(t, cfg, dir, 2, true)
	assertSnapshotsBitwiseEqual(t, got, want, "local-sgd")
}

// TestTrainerCheckpointValidation: a snapshot from a different
// configuration is rejected with a descriptive error, not silently resumed.
func TestTrainerCheckpointValidation(t *testing.T) {
	cfg := ckptConfig("topk", true)
	dir := t.TempDir()
	finals := runCheckpointed(t, cfg, dir, 0, false) // terminal snapshots only

	tryResume := func(mutate func(c *grace.Config, s *grace.Snapshot)) error {
		c := ckptConfig("topk", true)
		s := *finals[0]
		mutate(&c, &s)
		hub := comm.NewHub(1)
		c.Workers = 1
		s.Workers = 1
		c.Checkpoint = &grace.CheckpointConfig{Store: oneSnapshot{&s}, Resume: true}
		_, err := grace.RunWorker(c, 0, hub.Worker(0), simnet.NewCluster(c.Net, 1))
		return err
	}

	cases := map[string]struct {
		mutate func(c *grace.Config, s *grace.Snapshot)
		want   string
	}{
		"seed":   {func(c *grace.Config, s *grace.Snapshot) { s.Seed = 999 }, "seed"},
		"rank":   {func(c *grace.Config, s *grace.Snapshot) { s.Rank = 2 }, "rank"},
		"method": {func(c *grace.Config, s *grace.Snapshot) { s.Method = "dgc" }, "method"},
		"memory": {func(c *grace.Config, s *grace.Snapshot) { c.UseMemory = false }, "error-feedback"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			err := tryResume(tc.mutate)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestRunResumesFromStore: Store methods are keyed by rank, so the
// multi-goroutine Run entry point shares one among its ranks and resumes
// from it: a run restarted from the step-3 checkpoints finishes bitwise
// identical to the uninterrupted one.
func TestRunResumesFromStore(t *testing.T) {
	cfg := ckptConfig("dgc", false)
	run := func(dir string, resume bool) []*grace.Snapshot {
		finals := make([]*grace.Snapshot, cfg.Workers)
		c := cfg
		c.Checkpoint = &grace.CheckpointConfig{Store: openRecordingStore(t, dir, finals), Every: 3, Resume: resume}
		if _, err := grace.Run(c); err != nil {
			t.Fatal(err)
		}
		return finals
	}
	refDir := t.TempDir()
	want := run(refDir, false)
	got := run(seedStore(t, refDir, []int{0, 1, 2}, 3), true)
	assertSnapshotsBitwiseEqual(t, got, want, "Run resume")
}

// TestTrainerResumeAdoptsDonor: a whole-group resume in which one rank has
// no checkpoint is the heal's sync round — that rank adopts the donor's
// snapshot while the others load their own. With no per-rank
// divergent state (EF memory off, stateless codec) the adopted state is what
// the rank's own checkpoint would have held, so the finals still match.
func TestTrainerResumeAdoptsDonor(t *testing.T) {
	cfg := ckptConfig("topk", false)
	refDir := t.TempDir()
	want := runCheckpointed(t, cfg, refDir, 3, false)
	before := telemetry.Default.Value(telemetry.CtrRejoinTransferBytes)
	got := runCheckpointed(t, cfg, seedStore(t, refDir, []int{0, 2}, 3), 3, true)
	assertSnapshotsBitwiseEqual(t, got, want, "resume with a stateless rank")
	if telemetry.Default.Value(telemetry.CtrRejoinTransferBytes) == before {
		t.Fatal("the stateless rank did not adopt a donor snapshot")
	}
}
