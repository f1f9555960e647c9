package harness

import (
	"testing"
)

// runElasticCase executes the degrade-and-continue scenario on one transport
// and requires the acceptance contract: the survivors commit exactly N−1 with
// the victim evicted, roll back to the step-3 checkpoint (kill at step 5,
// cadence 3), and finish bitwise-identical to a reference N−1 run started
// from the post-reform state.
func runElasticCase(t *testing.T, cfg RecoveryConfig) {
	t.Helper()
	res, err := RunScenario(ScenarioShrink, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Fatalf("degraded run diverged from the N-1 reference: %s", res.Detail)
	}
	if res.ShrinkStep != 3 {
		t.Fatalf("shrink rolled back to step %d, want 3", res.ShrinkStep)
	}
	if res.ShrinkSize != cfg.Train.Workers-1 {
		t.Fatalf("shrink committed size %d, want %d", res.ShrinkSize, cfg.Train.Workers-1)
	}
	if len(res.Lost) != 1 || res.Lost[0] != cfg.KillRank {
		t.Fatalf("shrink evicted %v, want [%d]", res.Lost, cfg.KillRank)
	}
	if res.DowntimeMs <= 0 {
		t.Fatalf("downtime %v ms not measured", res.DowntimeMs)
	}
	if cfg.Train.UseMemory {
		// One EF residual set declared lost per tensor per evicted rank, on
		// each survivor. The counter is process-wide, so concurrent batteries
		// could inflate it — require at least the per-run minimum.
		if res.EFDrops <= 0 {
			t.Fatalf("EF-drop counter did not move despite error-feedback memory on")
		}
	} else if res.EFDrops != 0 {
		t.Fatalf("EF-drop counter moved by %d with error-feedback memory off", res.EFDrops)
	}
}

func TestElasticShrinkBitwiseHub(t *testing.T) {
	for _, tc := range []struct {
		method string
		mem    bool
	}{
		{"topk", true}, // stateless codec + framework EF memory
		{"dgc", false}, // codec-internal EF state
	} {
		t.Run(tc.method, func(t *testing.T) {
			runElasticCase(t, DefaultRecovery(TransportHub, tc.method, tc.mem, t.TempDir()))
		})
	}
}

func TestElasticShrinkBitwiseTCP(t *testing.T) {
	runElasticCase(t, DefaultRecovery(TransportTCP, "topk", true, t.TempDir()))
}

// TestElasticGrowHub: after the shrink, a fresh worker presents under the
// lost original rank; the members' join beacon absorbs it and every rank —
// including the joiner, which adopted its state from a donor snapshot — must
// finish at the full world size.
func TestElasticGrowHub(t *testing.T) {
	cfg := DefaultRecovery(TransportHub, "topk", true, t.TempDir())
	res, err := RunScenario(ScenarioGrow, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Train.Workers
	if res.GrowSize != n {
		t.Fatalf("grow committed size %d, want %d", res.GrowSize, n)
	}
	if res.GrowStep <= res.ShrinkStep {
		t.Fatalf("grow rolled back to step %d, not after the shrink step %d", res.GrowStep, res.ShrinkStep)
	}
	// Launch counts (1 per survivor, 2 for the lost rank: its first
	// incarnation dies, a fresh joiner replaces it) are enforced by
	// RunScenario itself; a violation is the err above.
	if res.GrowDowntimeMs <= 0 {
		t.Fatalf("grow downtime %v ms not measured", res.GrowDowntimeMs)
	}
	// Synchronous data-parallel training keeps the replicas identical: the
	// joiner's final params must match a survivor's bit for bit.
	ok, detail := snapshotsBitwiseEqual(
		res.Finals[cfg.KillRank:cfg.KillRank+1], res.Finals[0:1])
	if !ok {
		t.Fatalf("joiner finals diverged from rank 0: %s", detail)
	}
}
