package grace_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/fxrand"
	"repro/internal/grace"
)

// engineTestInfos builds a mixed layer-size distribution: a few large
// matrices, many small vectors — the shape profile real models hand the
// Engine.
func engineTestInfos(m int) []grace.TensorInfo {
	infos := make([]grace.TensorInfo, m)
	for i := range infos {
		var shape []int
		switch i % 3 {
		case 0:
			shape = []int{16, 32}
		case 1:
			shape = []int{8, 8}
		default:
			shape = []int{23}
		}
		infos[i] = grace.NewTensorInfo(fmt.Sprintf("layer%d.p%d", i/2, i), shape)
	}
	return infos
}

// engineTestGrads returns per-worker, per-step, per-tensor gradients,
// deterministic in (rank, step, tensor).
func engineTestGrads(rank, step int, infos []grace.TensorInfo) [][]float32 {
	rng := fxrand.New(uint64(rank)*1000 + uint64(step) + 1)
	out := make([][]float32, len(infos))
	for i, info := range infos {
		g := make([]float32, info.Size())
		for j := range g {
			g[j] = rng.NormFloat32() * 0.1
		}
		out[i] = g
	}
	return out
}

// runSequentialPipeline is the reference: the pre-Engine per-tensor loop.
func runSequentialPipeline(t *testing.T, workers, steps int, infos []grace.TensorInfo,
	newComp func(rank int) (grace.Compressor, error), ef bool) [][][]float32 {
	t.Helper()
	hub := comm.NewHub(workers)
	final := make([][][]float32, workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for rank := 0; rank < workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := newComp(rank)
			if err != nil {
				errs[rank] = err
				return
			}
			pipe := &grace.Pipeline{Comp: c, Coll: hub.Worker(rank)}
			if ef {
				pipe.Mem = grace.NewMemory(1, 1)
			}
			for step := 0; step < steps; step++ {
				grads := engineTestGrads(rank, step, infos)
				aggs := make([][]float32, len(infos))
				for i, info := range infos {
					agg, _, err := pipe.Exchange(grads[i], info)
					if err != nil {
						errs[rank] = err
						return
					}
					aggs[i] = agg
				}
				final[rank] = aggs
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("pipeline rank %d: %v", rank, err)
		}
	}
	return final
}

// runEngine runs the same exchange schedule through per-worker Engines.
func runEngine(t *testing.T, workers, steps, lanes int, infos []grace.TensorInfo,
	newComp func(rank int) (grace.Compressor, error), ef bool) [][][]float32 {
	t.Helper()
	hub := comm.NewHub(workers)
	final := make([][][]float32, workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for rank := 0; rank < workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var mem *grace.Memory
			if ef {
				mem = grace.NewMemory(1, 1)
			}
			eng, err := grace.NewEngine(
				grace.WithCollective(hub.Worker(rank)),
				grace.WithCompressorFactory(func() (grace.Compressor, error) { return newComp(rank) }),
				grace.WithEngineMemory(mem),
				grace.WithParallelism(lanes),
			)
			if err != nil {
				errs[rank] = err
				return
			}
			for step := 0; step < steps; step++ {
				grads := engineTestGrads(rank, step, infos)
				aggs, _, err := eng.Step(grads, infos)
				if err != nil {
					errs[rank] = err
					return
				}
				// Copy: engine buffers are only valid until the next Step.
				final[rank] = make([][]float32, len(aggs))
				for i, a := range aggs {
					final[rank][i] = append([]float32(nil), a...)
				}
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("engine rank %d: %v", rank, err)
		}
	}
	return final
}

// TestEngineMatchesPipeline proves the Engine computes exactly what the
// sequential Pipeline loop computes — same aggregates, bitwise — for every
// communication strategy: Allreduce (none), Allgather with mean (topk, with
// error feedback exercising the memory path), Allgather with a custom
// aggregator (signsgdmv's majority vote), and Custom comm (powersgd's
// two-allreduce scheme, which carries per-tensor warm-start state across
// steps). Deterministic methods only, so single-lane and multi-lane engines
// must agree with the reference exactly.
func TestEngineMatchesPipeline(t *testing.T) {
	const (
		workers = 4
		steps   = 3
		tensors = 10
	)
	infos := engineTestInfos(tensors)
	cases := []struct {
		name string
		ef   bool
		comp func(rank int) (grace.Compressor, error)
	}{
		{"none-allreduce", false, func(int) (grace.Compressor, error) { return grace.New("none") }},
		{"topk-ef-allgather", true, func(int) (grace.Compressor, error) {
			return grace.New("topk", grace.WithRatio(0.2))
		}},
		{"signsgdmv-aggregator", false, func(int) (grace.Compressor, error) { return grace.New("signsgdmv") }},
		{"powersgd-custom", false, func(int) (grace.Compressor, error) {
			return grace.New("powersgd", grace.WithRank(2))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runSequentialPipeline(t, workers, steps, infos, tc.comp, tc.ef)
			for _, lanes := range []int{1, 3} {
				got := runEngine(t, workers, steps, lanes, infos, tc.comp, tc.ef)
				for rank := range got {
					for ti := range infos {
						for j := range want[rank][ti] {
							if got[rank][ti][j] != want[rank][ti][j] {
								t.Fatalf("lanes=%d rank %d tensor %d elem %d: engine %v != pipeline %v",
									lanes, rank, ti, j, got[rank][ti][j], want[rank][ti][j])
							}
						}
					}
				}
			}
		})
	}
}

// TestEngineWorkersAgree runs randomized compressors (whose payloads carry
// their random choices) and checks every worker lands on identical
// aggregates — the replica-consistency invariant — under concurrent lanes.
func TestEngineWorkersAgree(t *testing.T) {
	const (
		workers = 5
		steps   = 4
		tensors = 12
	)
	infos := engineTestInfos(tensors)
	for _, method := range []struct {
		name string
		comp func(rank int) (grace.Compressor, error)
	}{
		{"qsgd", func(rank int) (grace.Compressor, error) {
			return grace.New("qsgd", grace.WithLevels(16), grace.WithSeed(uint64(rank)+1))
		}},
		{"randomk", func(rank int) (grace.Compressor, error) {
			return grace.New("randomk", grace.WithRatio(0.25), grace.WithSeed(uint64(rank)+1))
		}},
	} {
		t.Run(method.name, func(t *testing.T) {
			got := runEngine(t, workers, steps, 4, infos, method.comp, false)
			for rank := 1; rank < workers; rank++ {
				for ti := range infos {
					for j := range got[0][ti] {
						if got[rank][ti][j] != got[0][ti][j] {
							t.Fatalf("rank %d tensor %d elem %d disagrees with rank 0", rank, ti, j)
						}
					}
				}
			}
		})
	}
}

// TestEngineStepReport checks the merged accounting: totals equal the
// per-tensor sums and the per-strategy breakdown classifies every tensor.
func TestEngineStepReport(t *testing.T) {
	const workers = 3
	infos := engineTestInfos(8)
	hub := comm.NewHub(workers)
	reports := make([]*grace.StepReport, workers)
	var wg sync.WaitGroup
	for rank := 0; rank < workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			eng, err := grace.NewEngine(
				grace.WithCollective(hub.Worker(rank)),
				grace.WithCompressorFactory(func() (grace.Compressor, error) { return grace.New("topk", grace.WithRatio(0.1)) }),
				grace.WithParallelism(2),
			)
			if err != nil {
				panic(err)
			}
			_, rep, err := eng.Step(engineTestGrads(rank, 0, infos), infos)
			if err != nil {
				panic(err)
			}
			reports[rank] = rep
		}(rank)
	}
	wg.Wait()

	rep := reports[0]
	if len(rep.Tensors) != len(infos) {
		t.Fatalf("report has %d tensor entries, want %d", len(rep.Tensors), len(infos))
	}
	var sent int
	for i, st := range rep.Tensors {
		if st.Strategy != grace.Allgather {
			t.Fatalf("tensor %d classified as %v, want allgather", i, st.Strategy)
		}
		if st.SentBytes <= 0 {
			t.Fatalf("tensor %d has no wire volume", i)
		}
		if len(st.GatherSizes) != workers {
			t.Fatalf("tensor %d GatherSizes has %d entries, want %d", i, len(st.GatherSizes), workers)
		}
		sent += st.SentBytes
	}
	if rep.SentBytes != sent {
		t.Fatalf("merged SentBytes %d != per-tensor sum %d", rep.SentBytes, sent)
	}
	ag := rep.ByStrategy[grace.Allgather]
	if ag.Tensors != len(infos) || ag.SentBytes != sent {
		t.Fatalf("allgather breakdown %+v, want %d tensors / %d bytes", ag, len(infos), sent)
	}
	if rep.ByStrategy[grace.Allreduce].Tensors != 0 || rep.ByStrategy[grace.Custom].Tensors != 0 {
		t.Fatalf("unexpected non-allgather entries: %+v", rep.ByStrategy)
	}
	if rep.WallTime <= 0 {
		t.Fatal("report has no wall time")
	}
}

// badCustom declares the Custom strategy without implementing CustomComm.
type badCustom struct{}

func (badCustom) Name() string             { return "badcustom" }
func (badCustom) Strategy() grace.Strategy { return grace.Custom }
func (badCustom) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	return &grace.Payload{}, nil
}
func (badCustom) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	return nil, nil
}

func TestNewEngineValidation(t *testing.T) {
	coll := comm.Serial{}
	if _, err := grace.NewEngine(grace.WithCollective(coll)); err == nil {
		t.Fatal("engine without compressor should be rejected")
	}
	if _, err := grace.NewEngine(grace.WithCompressorFactory(oneComp(badCustom{})), grace.WithParallelism(1)); err == nil {
		t.Fatal("engine without collective should be rejected")
	}
	if _, err := grace.NewEngine(grace.WithCollective(coll),
		grace.WithCompressorFactory(oneComp(badCustom{})), grace.WithParallelism(1)); err == nil {
		t.Fatal("Custom strategy without CustomComm should be rejected")
	}
	flip := 0
	_, err := grace.NewEngine(
		grace.WithCollective(coll),
		grace.WithCompressorFactory(func() (grace.Compressor, error) {
			flip++
			if flip%2 == 0 {
				return grace.New("none")
			}
			return grace.New("topk")
		}),
		grace.WithParallelism(2),
	)
	if err == nil {
		t.Fatal("lanes with disagreeing methods should be rejected")
	}

	eng, err := grace.NewEngine(grace.WithCollective(coll),
		grace.WithCompressorFactory(oneComp(mustComp(t, "topk"))), grace.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	info := grace.NewTensorInfo("w", []int{4})
	if _, _, err := eng.Step([][]float32{{1, 2}}, []grace.TensorInfo{info}); err == nil {
		t.Fatal("length-mismatched gradient should be rejected")
	}
	if _, _, err := eng.Step([][]float32{{1, 2, 3, 4}, {1}}, []grace.TensorInfo{info}); err == nil {
		t.Fatal("gradient/info count mismatch should be rejected")
	}
}

func mustComp(t *testing.T, name string, opts ...grace.Option) grace.Compressor {
	t.Helper()
	c, err := grace.New(name, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// oneComp is a compressor factory that hands out one pre-built instance; pair
// it with WithParallelism(1), so that a single lane owns the instance.
func oneComp(c grace.Compressor) func() (grace.Compressor, error) {
	return func() (grace.Compressor, error) { return c, nil }
}

// TestEngineEmptyStep: a zero-tensor step is a no-op, not a hang.
func TestEngineEmptyStep(t *testing.T) {
	eng, err := grace.NewEngine(grace.WithCollective(comm.Serial{}),
		grace.WithCompressorFactory(oneComp(mustComp(t, "none"))), grace.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	aggs, rep, err := eng.Step(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 0 || rep.SentBytes != 0 {
		t.Fatalf("empty step produced output: %d tensors, %d bytes", len(aggs), rep.SentBytes)
	}
}

// TestRegistryConcurrent hammers the registry from many goroutines:
// registrations of fresh names racing Lookup/Names/All/New on existing ones.
// Run under -race this enforces the registry's concurrent-use guarantee.
func TestRegistryConcurrent(t *testing.T) {
	const goroutines = 8
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				if k%5 == 0 {
					grace.Register(grace.Meta{
						Name:  fmt.Sprintf("zz-conc-%d-%d", gi, k),
						Class: "baseline",
						New:   func(o grace.Options) (grace.Compressor, error) { return grace.New("none") },
					})
				}
				if _, err := grace.Lookup("topk"); err != nil {
					panic(err)
				}
				if _, err := grace.New("qsgd", grace.WithLevels(8)); err != nil {
					panic(err)
				}
				if len(grace.Names()) == 0 || len(grace.All()) == 0 {
					panic("registry listing went empty")
				}
			}
		}(gi)
	}
	wg.Wait()
}
