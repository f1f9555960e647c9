package grace_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/grace"
)

// runEngineFusion is runEngine with an explicit fusion policy and collective
// wrapper hook; wrap may be nil. On every rank it also holds the engine to its
// fault ledger: the per-tensor QualityReport faults must add up to the faults
// the step reports counted.
func runEngineFusion(t *testing.T, workers, steps, lanes int, fc grace.FusionConfig,
	infos []grace.TensorInfo, newComp func(rank int) (grace.Compressor, error), ef bool,
	fallback bool, wrap func(rank int, c comm.Collective) comm.Collective) ([][][]float32, []*grace.StepReport) {
	t.Helper()
	hub := comm.NewHub(workers)
	final := make([][][]float32, workers)
	reports := make([]*grace.StepReport, workers)
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
			coll := comm.Collective(hub.Worker(rank))
			if wrap != nil {
				coll = wrap(rank, coll)
			}
			eng, err := grace.NewEngine(
				grace.WithCollective(coll),
				grace.WithCompressorFactory(func() (grace.Compressor, error) { return newComp(rank) }),
				grace.WithEngineMemory(mem),
				grace.WithParallelism(lanes),
				grace.WithFusion(fc),
				grace.WithDecodeFallback(fallback),
			)
			if err != nil {
				errs[rank] = err
				return
			}
			var stepFaults, tensorFaults int64
			for step := 0; step < steps; step++ {
				grads := engineTestGrads(rank, step, infos)
				aggs, rep, err := eng.Step(grads, infos)
				if err != nil {
					errs[rank] = err
					return
				}
				final[rank] = make([][]float32, len(aggs))
				for i, a := range aggs {
					final[rank][i] = append([]float32(nil), a...)
				}
				cp := *rep
				reports[rank] = &cp
				stepFaults += int64(rep.Faults)
			}
			for _, q := range eng.QualityReport() {
				tensorFaults += q.Faults
			}
			if tensorFaults != stepFaults {
				errs[rank] = fmt.Errorf("QualityReport counts %d faults, the step reports %d", tensorFaults, stepFaults)
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("fused engine rank %d: %v", rank, err)
		}
	}
	return final, reports
}

// TestEngineFusedMatchesUnfused is the bitwise-identity pillar of tensor
// fusion: on the in-process hub (rank-ordered, position-independent
// summation) the fused exchange must reproduce the unfused engine's
// aggregates exactly — for dense allreduce, allgather sparsifiers with error
// feedback, randomized payload methods, custom aggregators, and
// custom-communication methods (which fusion must leave alone) — across
// bucket geometries and lane counts.
func TestEngineFusedMatchesUnfused(t *testing.T) {
	const (
		workers = 4
		steps   = 3
		tensors = 12
	)
	infos := engineTestInfos(tensors)
	methods := []struct {
		name string
		ef   bool
		comp func(rank int) (grace.Compressor, error)
	}{
		{"none-allreduce", false, func(int) (grace.Compressor, error) { return grace.New("none") }},
		{"topk-ef-allgather", true, func(int) (grace.Compressor, error) {
			return grace.New("topk", grace.WithRatio(0.2))
		}},
		{"qsgd-random-payload", false, func(rank int) (grace.Compressor, error) {
			return grace.New("qsgd", grace.WithLevels(16), grace.WithSeed(uint64(rank)+1))
		}},
		{"signsgdmv-aggregator", false, func(int) (grace.Compressor, error) { return grace.New("signsgdmv") }},
		{"powersgd-custom", false, func(int) (grace.Compressor, error) {
			return grace.New("powersgd", grace.WithRank(2))
		}},
	}
	geometries := []grace.FusionConfig{
		{TargetBytes: 1 << 20}, // everything in one bucket
		{TargetBytes: 2600},    // three tensors per bucket
		{TargetBytes: 1500},    // buckets of one and two, alternating
	}
	for _, m := range methods {
		t.Run(m.name, func(t *testing.T) {
			// The unfused reference shares the lane count: randomized codecs
			// draw from per-lane RNG streams, so lane geometry (not fusion)
			// must be held fixed for a bitwise comparison.
			for _, lanes := range []int{1, 3} {
				want, _ := runEngineFusion(t, workers, steps, lanes, grace.FusionConfig{}, infos, m.comp, m.ef, false, nil)
				for _, fc := range geometries {
					got, _ := runEngineFusion(t, workers, steps, lanes, fc, infos, m.comp, m.ef, false, nil)
					for rank := range got {
						for ti := range infos {
							for j := range want[rank][ti] {
								if got[rank][ti][j] != want[rank][ti][j] {
									t.Fatalf("fusion %+v lanes=%d rank %d tensor %d elem %d: fused %v != unfused %v",
										fc, lanes, rank, ti, j, got[rank][ti][j], want[rank][ti][j])
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestEngineFusedReport checks the round accounting fusion exists for: fused
// runs issue strictly fewer collective rounds, classify bucket volume, and
// the unfused engine reports one round per tensor.
func TestEngineFusedReport(t *testing.T) {
	const workers = 3
	infos := engineTestInfos(12)
	newComp := func(int) (grace.Compressor, error) { return grace.New("topk", grace.WithRatio(0.1)) }

	_, plain := runEngineFusion(t, workers, 1, 2, grace.FusionConfig{}, infos, newComp, false, false, nil)
	if got := plain[0].Rounds; got != len(infos) {
		t.Fatalf("unfused Rounds = %d, want %d", got, len(infos))
	}
	if plain[0].FusedBuckets != 0 || plain[0].FusedTensors != 0 {
		t.Fatalf("unfused run reported fusion: %+v", plain[0])
	}

	_, fused := runEngineFusion(t, workers, 1, 2, grace.FusionConfig{TargetBytes: 1 << 20}, infos, newComp, false, false, nil)
	rep := fused[0]
	if rep.Rounds != 1 {
		t.Fatalf("single-bucket run issued %d rounds, want 1", rep.Rounds)
	}
	if rep.FusedBuckets != 1 || rep.FusedTensors != len(infos) {
		t.Fatalf("fusion accounting %d buckets / %d tensors, want 1 / %d",
			rep.FusedBuckets, rep.FusedTensors, len(infos))
	}
	if rep.FusionOverheadBytes != comm.FusedOverhead(len(infos)) {
		t.Fatalf("overhead %d bytes, want %d", rep.FusionOverheadBytes, comm.FusedOverhead(len(infos)))
	}
	var paySum int
	for _, st := range rep.Tensors {
		paySum += st.SentBytes
	}
	if rep.FusedBytes != paySum {
		t.Fatalf("FusedBytes %d != per-tensor payload sum %d", rep.FusedBytes, paySum)
	}
	if rep.SentBytes != paySum+rep.FusionOverheadBytes {
		t.Fatalf("SentBytes %d, want payloads %d + overhead %d", rep.SentBytes, paySum, rep.FusionOverheadBytes)
	}
}

// truncatingColl corrupts one AllgatherBytes round by truncating this
// worker's outgoing payload to a single byte — guaranteed to break the fused
// frame header, unlike random bit flips.
type truncatingColl struct {
	comm.Collective
	onOp int
	op   int
}

func (c *truncatingColl) AllgatherBytes(b []byte) ([][]byte, error) {
	c.op++
	if c.op == c.onOp {
		b = b[:1]
	}
	return c.Collective.AllgatherBytes(b)
}

// TestEngineFusedFrameFaultDegradesPerTensor: a fused allgather frame that
// fails to split is a whole-bucket decode fault, and under DecodeFallback
// every tensor in the bucket must degrade through the per-tensor recovery
// round — landing on the uncompressed mean, on every rank, with the step
// surviving. Without DecodeFallback the same fault must fail the step.
func TestEngineFusedFrameFaultDegradesPerTensor(t *testing.T) {
	const workers = 3
	infos := engineTestInfos(6)
	newComp := func(int) (grace.Compressor, error) { return grace.New("topk", grace.WithRatio(0.2)) }
	fc := grace.FusionConfig{TargetBytes: 1 << 20}
	breakRank1 := func(rank int, c comm.Collective) comm.Collective {
		if rank == 1 {
			return &truncatingColl{Collective: c, onOp: 1}
		}
		return c
	}

	got, reps := runEngineFusion(t, workers, 1, 2, fc, infos, newComp, false, true, breakRank1)

	// The salvage result is the uncompressed mean: what method "none"
	// computes over the same gradients.
	want, _ := runEngineFusion(t, workers, 1, 1, grace.FusionConfig{}, infos,
		func(int) (grace.Compressor, error) { return grace.New("none") }, false, false, nil)
	for rank := range got {
		if reps[rank].Fallbacks != len(infos) {
			t.Fatalf("rank %d recovered %d tensors, want the whole bucket (%d)",
				rank, reps[rank].Fallbacks, len(infos))
		}
		// Every rank failed to split rank 1's frame, so each counts the whole
		// bucket as local faults — in the step report and (runEngineFusion
		// checks the two agree) per tensor in the quality table.
		if reps[rank].Faults != len(infos) {
			t.Fatalf("rank %d reports %d faults, want %d", rank, reps[rank].Faults, len(infos))
		}
		for ti := range infos {
			for j := range want[rank][ti] {
				if got[rank][ti][j] != want[rank][ti][j] {
					t.Fatalf("rank %d tensor %d elem %d: recovered %v != uncompressed mean %v",
						rank, ti, j, got[rank][ti][j], want[rank][ti][j])
				}
			}
		}
	}

	// Same fault without the fallback: the step must fail loudly.
	hub := comm.NewHub(workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for rank := 0; rank < workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			eng, err := grace.NewEngine(
				grace.WithCollective(breakRank1(rank, hub.Worker(rank))),
				grace.WithCompressorFactory(func() (grace.Compressor, error) { return newComp(rank) }),
				grace.WithFusion(fc),
			)
			if err != nil {
				errs[rank] = err
				return
			}
			_, _, errs[rank] = eng.Step(engineTestGrads(rank, 0, infos), infos)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err == nil {
			t.Fatalf("rank %d survived a corrupt fused frame without DecodeFallback", rank)
		}
		var se *grace.StepError
		if !errors.As(err, &se) {
			t.Fatalf("rank %d: error %v is not a StepError", rank, err)
		}
		if !errors.Is(err, comm.ErrBadFusedFrame) {
			t.Fatalf("rank %d: error %v does not wrap ErrBadFusedFrame", rank, err)
		}
	}
}
