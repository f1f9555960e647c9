package grace_test

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/grace"
	"repro/internal/testrace"
)

// TestEngineDenseStepAllocCeiling pins the steady-state allocation count of
// one uncompressed Engine.Step per 2-rank hub group: the identity codec
// aliases the gradient, the engine sums in its own per-tensor buffers and
// the hub deposits into handle-owned snapshots, so what remains is per-tensor
// bookkeeping (two payload headers a tensor, the lane goroutine) and nothing
// gradient-sized.
func TestEngineDenseStepAllocCeiling(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	infos := engineTestInfos(6)
	hub := comm.NewHub(2)
	engs := make([]*grace.Engine, 2)
	grads := make([][][]float32, 2)
	for rank := range engs {
		eng, err := grace.NewEngine(grace.EngineConfig{
			Coll:        hub.Worker(rank),
			New:         func() (grace.Compressor, error) { return grace.New("none", grace.Options{}) },
			Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		engs[rank], grads[rank] = eng, engineTestGrads(rank, 0, infos)
	}
	steps := make(chan struct{})
	peerErr := make(chan error, 1)
	go func() {
		for range steps {
			if _, _, err := engs[1].Step(grads[1], infos); err != nil {
				peerErr <- err
				return
			}
		}
		peerErr <- nil
	}()
	var stepErr error
	perStep := testing.AllocsPerRun(200, func() {
		steps <- struct{}{}
		if _, _, err := engs[0].Step(grads[0], infos); err != nil {
			stepErr = err
		}
	})
	close(steps)
	if err := <-peerErr; err != nil || stepErr != nil {
		t.Fatalf("step errors: rank 0 %v, rank 1 %v", stepErr, err)
	}
	// Both ranks' allocations land in the count: 6 tensors x 2 ranks x 2
	// payload headers, plus 3 per Step call; measured 30.
	const ceiling = 32
	if perStep > ceiling {
		t.Fatalf("dense Engine.Step allocates %.0f objects per step across both ranks, ceiling %d", perStep, ceiling)
	}
	t.Logf("dense Engine.Step: %.0f allocs per step across both ranks", perStep)
}
