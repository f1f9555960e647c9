package grace_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/grace"
	"repro/internal/simnet"
)

// elasticCfg is ckptConfig at a chosen world size.
func elasticCfg(method string, mem bool, workers int) grace.Config {
	cfg := ckptConfig(method, mem)
	cfg.Workers = workers
	return cfg
}

// runElasticResumed drives an elastic-enabled run over one hub in which every
// rank resumes from dir (whose snapshots may have been captured at a
// different world size), returning the per-rank final snapshots.
func runElasticResumed(t *testing.T, cfg grace.Config, dir string) []*grace.Snapshot {
	t.Helper()
	cfg.Elastic = &grace.ElasticConfig{RejoinDeadline: time.Second}
	return runRanks(t, cfg, dir, grace.CheckpointConfig{Every: 3, Resume: true, Heal: true})
}

// TestElasticResumeShrinkWorldSize: snapshots captured by a 3-worker run
// resume into a 2-worker elastic run. The loop position is re-derived (the
// interrupted epoch replays from its start under the new partition), the
// finals carry the new world size, and the whole transform is deterministic:
// two independent resumed runs finish bitwise identical.
func TestElasticResumeShrinkWorldSize(t *testing.T) {
	srcDir := t.TempDir()
	runCheckpointed(t, elasticCfg("topk", true, 3), srcDir, 3, false)

	// Ranks 0 and 1 of the 3-worker run become the 2-worker group; their
	// snapshots keep Workers=3, which is what selects the elastic transform.
	small := elasticCfg("topk", true, 2)
	got := runElasticResumed(t, small, seedStore(t, srcDir, []int{0, 1}, 3))

	// 96 examples / (8 batch × 2 workers) = 6 iters/epoch. Resume lands at
	// step 3 inside epoch 0, which replays in full: 3 + 6 + 6.
	const wantFinal = 15
	for rank, s := range got {
		if s.Step != wantFinal {
			t.Fatalf("rank %d final step %d, want %d", rank, s.Step, wantFinal)
		}
		if s.Workers != 2 {
			t.Fatalf("rank %d final world size %d, want 2", rank, s.Workers)
		}
	}

	again := runElasticResumed(t, small, seedStore(t, srcDir, []int{0, 1}, 3))
	assertSnapshotsBitwiseEqual(t, again, got, "shrink-resume determinism")
}

// TestElasticResumeGrowWorldSize: snapshots captured by a 2-worker run resume
// into a 3-worker elastic run; the extra rank, holding none, adopts a donor
// snapshot with its rank identity rewritten (the state-transfer path).
// Deterministic across two independent runs.
func TestElasticResumeGrowWorldSize(t *testing.T) {
	srcDir := t.TempDir()
	runCheckpointed(t, elasticCfg("topk", true, 2), srcDir, 3, false)

	// Step 3 is pruned by the source run's keep-3 retention (12 steps mean
	// checkpoints at 3,6,9,12); step 6 — the epoch boundary — survives.
	big := elasticCfg("topk", true, 3)
	got := runElasticResumed(t, big, seedStore(t, srcDir, []int{0, 1}, 6))

	// 96 / (8 × 3) = 4 iters/epoch. The step-6 snapshot records epoch 0,
	// iter 6 (the epoch counter advances at the loop boundary, after the
	// save), and the elastic transform replays the recorded epoch from its
	// start under the 3-way partition: 6 + 4 + 4.
	const wantFinal = 14
	for rank, s := range got {
		if s.Step != wantFinal {
			t.Fatalf("rank %d final step %d, want %d", rank, s.Step, wantFinal)
		}
		if s.Workers != 3 {
			t.Fatalf("rank %d final world size %d, want 3", rank, s.Workers)
		}
	}

	again := runElasticResumed(t, big, seedStore(t, srcDir, []int{0, 1}, 6))
	assertSnapshotsBitwiseEqual(t, again, got, "grow-resume determinism")
}

// TestElasticResumeReshardDeterministic: the sampler's partition at a new
// world size is a pure function of (len, workers, rank, seed) — every member
// derives the identical re-shard with no coordination, the shards are
// disjoint, and together they cover exactly the per-worker truncation of the
// same global permutation.
func TestElasticResumeReshardDeterministic(t *testing.T) {
	const n, bs, seed = 96, 8, 11
	for _, workers := range []int{2, 3, 4} {
		seen := make(map[int]int)
		total := 0
		for rank := 0; rank < workers; rank++ {
			// Derive twice; the schedules must agree element for element.
			a := data.NewSampler(n, workers, rank, seed).EpochBatches(bs)
			b := data.NewSampler(n, workers, rank, seed).EpochBatches(bs)
			if len(a) != len(b) {
				t.Fatalf("workers=%d rank %d: %d vs %d batches across derivations", workers, rank, len(a), len(b))
			}
			for i := range a {
				for j := range a[i] {
					if a[i][j] != b[i][j] {
						t.Fatalf("workers=%d rank %d: batch %d element %d differs", workers, rank, i, j)
					}
					if prev, dup := seen[a[i][j]]; dup {
						t.Fatalf("workers=%d: example %d in both rank %d and rank %d shards", workers, a[i][j], prev, rank)
					}
					seen[a[i][j]] = rank
					total++
				}
			}
		}
		// Every worker contributes full batches over an equal shard: the
		// union covers workers×⌊(n/workers)/bs⌋×bs distinct examples.
		want := workers * ((n / workers) / bs) * bs
		if total != want {
			t.Fatalf("workers=%d: %d examples covered, want %d", workers, total, want)
		}
	}
}

// TestElasticResumeRejectsWithoutElastic: without ElasticConfig a cross-world
// snapshot must still be refused — the transform is opt-in.
func TestElasticResumeRejectsWithoutElastic(t *testing.T) {
	srcDir := t.TempDir()
	finals := runCheckpointed(t, elasticCfg("topk", true, 3), srcDir, 3, false)
	cfg := elasticCfg("topk", true, 1)
	cfg.Checkpoint = &grace.CheckpointConfig{Store: oneSnapshot{finals[0]}, Resume: true}
	_, err := grace.RunWorker(cfg, 0, comm.NewHub(1).Worker(0), simnet.NewCluster(cfg.Net, 1))
	if err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("err = %v, want worker-count rejection", err)
	}
}
