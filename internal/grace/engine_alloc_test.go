package grace_test

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/comm"
	"repro/internal/grace"
	"repro/internal/telemetry"
	"repro/internal/testrace"
)

// stepAllocs measures the steady-state allocation count of one Engine.Step on
// a 2-rank hub group, both ranks' allocations included: rank 1 steps on a
// goroutine of its own, in lockstep with the measured rank 0. opts builds one
// rank's engine options beyond the collective and the single codec lane. The
// second result is the collective rounds rank 0's last step issued.
func stepAllocs(t *testing.T, infos []grace.TensorInfo, opts func() []grace.EngineOption) (float64, int) {
	t.Helper()
	if testrace.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	hub := comm.NewHub(2)
	engs := make([]*grace.Engine, 2)
	grads := make([][][]float32, 2)
	for rank := range engs {
		eng, err := grace.NewEngine(append([]grace.EngineOption{
			grace.WithCollective(hub.Worker(rank)), grace.WithParallelism(1)}, opts()...)...)
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
	// A collection mid-run empties the codecs' sync.Pools and moves the count
	// by a few objects; with the collector off it repeats exactly, which is
	// what lets a caller compare two configurations for equality.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var stepErr error
	var rounds int
	perStep := testing.AllocsPerRun(200, func() {
		steps <- struct{}{}
		_, rep, err := engs[0].Step(grads[0], infos)
		if err != nil {
			stepErr = err
			return
		}
		rounds = rep.Rounds
	})
	close(steps)
	if err := <-peerErr; err != nil || stepErr != nil {
		t.Fatalf("step errors: rank 0 %v, rank 1 %v", stepErr, err)
	}
	return perStep, rounds
}

// TestEngineDenseStepAllocCeiling pins the steady-state allocation count of
// one uncompressed Engine.Step per 2-rank hub group: the identity codec
// aliases the gradient, the engine sums in its own per-bucket buffers and
// the hub deposits into handle-owned snapshots, and the decode reads the sum
// through its lane's payload header, so what remains is per-tensor
// bookkeeping (the codec's payload header, the lane goroutine) and nothing
// gradient-sized.
func TestEngineDenseStepAllocCeiling(t *testing.T) {
	perStep, _ := stepAllocs(t, engineTestInfos(6), func() []grace.EngineOption {
		return []grace.EngineOption{
			grace.WithCompressorFactory(func() (grace.Compressor, error) { return grace.New("none") })}
	})
	// Both ranks' allocations land in the count: 6 tensors x 2 ranks x 1
	// payload header, plus 3 per Step call; measured 18.
	const ceiling = 18
	if perStep > ceiling {
		t.Fatalf("dense Engine.Step allocates %.0f objects per step across both ranks, ceiling %d", perStep, ceiling)
	}
	t.Logf("dense Engine.Step: %.0f allocs per step across both ranks", perStep)
}

// TestEngineQuantizerStepAllocCeiling pins the decode arm of the 19 codecs
// without DecompressInto, which no benchmark workload runs: each decode
// (the EF local approximation, then every rank's payload) allocates its
// output, so the count scales with tensors x (ranks + 1). Each ceiling is the
// measured count (138, 78) plus under 2 %.
func TestEngineQuantizerStepAllocCeiling(t *testing.T) {
	for _, tc := range []struct {
		method  string
		ceiling float64
	}{
		{"qsgd", 140},
		{"eightbit", 79},
	} {
		t.Run(tc.method, func(t *testing.T) {
			perStep, _ := stepAllocs(t, engineTestInfos(6), func() []grace.EngineOption {
				return []grace.EngineOption{
					grace.WithCompressorFactory(func() (grace.Compressor, error) { return grace.New(tc.method) }),
					grace.WithEngineMemory(grace.NewMemory(1, 1))}
			})
			if perStep > tc.ceiling {
				t.Fatalf("%s + EF Engine.Step allocates %.0f objects per step across both ranks, ceiling %.0f",
					tc.method, perStep, tc.ceiling)
			}
			t.Logf("%s + EF Engine.Step: %.0f allocs per step across both ranks", tc.method, perStep)
		})
	}
}

// manySmallInfos is the benchmark's exchange_tcp_manysmall layer set: 49
// tensors, nearly all small (norm scales, biases, tiny projections) plus a
// couple of mid-sized kernels, mirroring how transformer-style parameter lists
// are dominated by count rather than bytes.
func manySmallInfos() []grace.TensorInfo {
	var shapes [][]int
	for i := 0; i < 12; i++ {
		shapes = append(shapes, []int{256}, []int{64}, []int{16, 16})
	}
	shapes = append(shapes,
		[]int{64, 64}, []int{64, 64}, []int{128, 32},
		[]int{96}, []int{96}, []int{96}, []int{96},
		[]int{8, 8}, []int{8, 8}, []int{8, 8}, []int{8, 8}, []int{24}, []int{24})
	infos := make([]grace.TensorInfo, len(shapes))
	for i, s := range shapes {
		infos[i] = grace.NewTensorInfo(fmt.Sprintf("small%02d", i), s)
	}
	return infos
}

// TestEngineManySmallStepAllocCeiling pins the compressed step where the
// benchmark's 2 % allocation bound bites: 49 small tensors, top-k 5 % with
// error feedback, one allgather round each (unfused) or 16 KiB buckets
// (fused). Each ceiling is the measured count (300, 220) plus under 2 %, and
// sits below what the engine allocated (1 084, 1 004) while the sparse decode
// copied the index block and built an index list, and every decode boxed a
// fresh payload header.
//
// The same engines pin the two machine-independent facts the retired hub
// step benchmark carried. Rounds: the per-tensor schedule issues one
// collective round per tensor, 16 KiB buckets at least 4x fewer. Spans: with
// telemetry recording on — phase spans plus op and step events in the ring —
// the step allocates what it does with it off, so neither the disabled nor
// the enabled instrumentation path puts anything on the heap.
func TestEngineManySmallStepAllocCeiling(t *testing.T) {
	infos := manySmallInfos()
	allocs, rounds := map[string]float64{}, map[string]int{}
	for _, tc := range []struct {
		name    string
		fusion  int
		spans   bool
		ceiling float64
	}{
		{"unfused", 0, false, 305},
		{"fused-16KiB", 16 << 10, false, 224},
		{"unfused-spans-on", 0, true, 305},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.spans {
				prev := telemetry.Default.Enabled()
				telemetry.Default.Enable(true)
				defer telemetry.Default.Enable(prev)
			}
			perStep, r := stepAllocs(t, infos, func() []grace.EngineOption {
				return []grace.EngineOption{
					grace.WithCompressorFactory(func() (grace.Compressor, error) {
						return grace.New("topk", grace.WithRatio(0.05))
					}),
					grace.WithEngineMemory(grace.NewMemory(1, 1)),
					grace.WithFusionBytes(tc.fusion)}
			})
			allocs[tc.name], rounds[tc.name] = perStep, r
			if perStep > tc.ceiling {
				t.Fatalf("%s Engine.Step allocates %.0f objects per step across both ranks, ceiling %.0f",
					tc.name, perStep, tc.ceiling)
			}
			t.Logf("%s Engine.Step: %.0f allocs per step across both ranks, %d rounds", tc.name, perStep, r)
		})
	}
	if len(allocs) < 3 { // the rows skipped themselves under the race detector
		return
	}
	if u, f := rounds["unfused"], rounds["fused-16KiB"]; u != len(infos) || f*4 > u {
		t.Errorf("rounds per step: %d unfused (want %d, one per tensor), %d fused (want >= 4x fewer)", u, len(infos), f)
	}
	if off, on := allocs["unfused"], allocs["unfused-spans-on"]; on != off {
		t.Errorf("span and event recording costs allocations: %.0f per step with telemetry on, %.0f with it off", on, off)
	}
}

// TestSparseDecompressIntoAllocs pins the decode the Engine runs n + 1 times
// per sparsified tensor a step: topk's and randomk's DecompressInto stream
// the payload into the caller's slice and allocate nothing.
func TestSparseDecompressIntoAllocs(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	info := grace.NewTensorInfo("w", []int{64, 64})
	g := engineTestGrads(0, 0, []grace.TensorInfo{info})[0]
	dst := make([]float32, info.Size())
	for _, method := range []string{"topk", "randomk"} {
		c, err := grace.New(method, grace.WithRatio(0.05))
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Compress(g, info)
		if err != nil {
			t.Fatal(err)
		}
		into := grace.Capabilities(c).Into
		if into == nil {
			t.Fatalf("%s has no DecompressInto", method)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := into.DecompressInto(p, info, dst); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s DecompressInto allocates %v objects per call, want 0", method, n)
		}
	}
}
