package harness

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/grace"
)

// The kill-point sweep: the standard hub recovery scenario with the kill moved
// over every (rank, step) of the run, for a stateless codec under framework
// error feedback (topk + EF) and a codec whose momentum and local-accumulation
// state live inside the compressor (dgc). Each point must reach a verdict,
// finish bitwise-equal to its reference, leave no goroutine behind and, where
// the group crashes, fail with typed errors.

// sweepMethods are the sweep's codec rows.
var sweepMethods = []struct {
	method string
	mem    bool
}{
	{"topk", true},
	{"dgc", false},
}

// sweepKillSteps are the kill points every scenario covers: from the first
// checkpoint to the step before the last. A rejoin victim killed at the final
// step dies after the survivors have finished, so its respawn waits out the
// hub's reform timeout; the grid stops short of it.
var sweepKillSteps = []int64{3, 4, 5, 6, 7}

// sweepPoint runs one point of the grid and checks it.
func sweepPoint(tb testing.TB, s Scenario, method string, mem bool, rank int, step int64) {
	tb.Helper()
	baseline := runtime.NumGoroutine()
	cfg := DefaultRecovery(TransportHub, method, mem, tb.TempDir())
	cfg.KillRank, cfg.KillStep = rank, step
	res, err := RunScenario(s, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if !res.Pass || (s != ScenarioGrow && !res.Match) {
		tb.Fatalf("no bitwise match: %s", res.Detail)
	}
	for r, kerr := range res.KillErrs {
		var ce *comm.Error
		switch {
		case r == rank && !errors.Is(kerr, ErrSimulatedCrash):
			tb.Fatalf("victim rank %d error = %v, want the simulated crash", r, kerr)
		case r != rank && !errors.As(kerr, &ce):
			tb.Fatalf("survivor rank %d error is untyped: %v", r, kerr)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			tb.Fatalf("%d goroutines after the scenario, %d before it", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// sweep runs scenario s over the whole grid as subtests of run.
func sweep(run func(name string, point func(testing.TB)), s Scenario, steps []int64) {
	for _, m := range sweepMethods {
		for rank := 0; rank < 3; rank++ {
			for _, step := range steps {
				name := fmt.Sprintf("%s/%s/rank%d/step%d", s, m.method, rank, step)
				run(name, func(tb testing.TB) { sweepPoint(tb, s, m.method, m.mem, rank, step) })
			}
		}
	}
}

// methodSweep runs scenario s once per registered method — the default kill
// point (rank 1 after step 5), error feedback as Table I runs the method — so
// every kind of codec state crosses the recovery: EF residuals, per-tensor
// vectors and random streams.
func methodSweep(run func(name string, point func(testing.TB)), s Scenario) {
	for _, m := range grace.All() {
		mem := m.DefaultEF && !m.BuiltinEF
		run(fmt.Sprintf("%s/method/%s", s, m.Name), func(tb testing.TB) { sweepPoint(tb, s, m.Name, mem, 1, 5) })
	}
}

// TestScenarioMethodSweep is the method axis of the sweep on the hub: a
// single-rank respawn through the sync round for every registered method.
func TestScenarioMethodSweep(t *testing.T) {
	methodSweep(func(name string, point func(testing.TB)) {
		t.Run(name, func(t *testing.T) { point(t) })
	}, ScenarioRejoin)
}

// TestScenarioKillPointSweep covers restart and rejoin on the hub — 60
// points at a few milliseconds each — plus restart killed before the first
// checkpoint, which must start fresh and still match the reference.
func TestScenarioKillPointSweep(t *testing.T) {
	run := func(name string, point func(testing.TB)) {
		t.Run(name, func(t *testing.T) { point(t) })
	}
	sweep(run, ScenarioRestart, append([]int64{1, 2}, sweepKillSteps...))
	sweep(run, ScenarioRejoin, sweepKillSteps)
}

// BenchmarkScenarioKillPointSweepShrink adds shrink over the same grid and
// the method axis: every survivor re-binds its Engine to the smaller group.
// Each point waits out the survivors' rejoin deadline before the vote, so the
// 30 grid and 22 method points take seconds rather than milliseconds; `make
// sweep` runs them once (-benchtime 1x) next to the tier-1 sweep.
func BenchmarkScenarioKillPointSweepShrink(b *testing.B) {
	run := func(name string, point func(testing.TB)) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				point(b)
			}
		})
	}
	sweep(run, ScenarioShrink, sweepKillSteps)
	methodSweep(run, ScenarioShrink)
}
