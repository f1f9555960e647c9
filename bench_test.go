// Benchmarks regenerating the paper's tables and figures (one bench target
// per table/figure, per DESIGN.md §5). Each target runs the corresponding
// harness experiment at a reduced scale so `go test -bench=.` finishes in
// minutes; the gracebench CLI runs the full-scale versions.
package repro_test

import (
	"io"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/grace"
	"repro/internal/harness"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// benchArtifactDir is where bench targets drop BENCH_<name>.json artifacts
// (committed as the perf trajectory across PRs). Override with
// GRACE_BENCH_DIR; only benchmark runs write here, plain `go test` does not.
func benchArtifactDir() string {
	if dir := os.Getenv("GRACE_BENCH_DIR"); dir != "" {
		return dir
	}
	return "results"
}

// benchSweep is the reduced-scale system configuration for bench targets.
func benchSweep() harness.SweepConfig {
	return harness.SweepConfig{Workers: 4, Net: simnet.TCP10G, Scale: 0.25, Seed: 42}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := harness.Experiments()[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		tables, err := exp.Run(benchSweep())
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			t.Print(io.Discard)
		}
	}
}

func BenchmarkTable1Registry(b *testing.B) { runExperiment(b, "table1") }

func BenchmarkTable2Baselines(b *testing.B) { runExperiment(b, "table2") }

func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1") }

func BenchmarkFig6(b *testing.B) {
	for _, id := range []string{"fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f"} {
		b.Run(id, func(b *testing.B) { runExperiment(b, id) })
	}
}

func BenchmarkFig7(b *testing.B) {
	for _, id := range []string{"fig7a", "fig7b", "fig7c"} {
		b.Run(id, func(b *testing.B) { runExperiment(b, id) })
	}
}

// BenchmarkFig8Codec measures compress+decompress latency per method on a
// 1 MB gradient — the natural testing.B form of the paper's Figure 8
// micro-benchmark (gracebench -exp fig8 runs the 10 MB / 100 MB points).
func BenchmarkFig8Codec(b *testing.B) {
	const d = 1024 * 1024 / 4
	for _, spec := range harness.Suite() {
		if spec.Name == "none" {
			continue
		}
		spec := spec
		b.Run(spec.Label, func(b *testing.B) {
			opts := spec.Opts
			opts.Seed = 7
			c, err := grace.New(spec.Name, opts)
			if err != nil {
				b.Fatal(err)
			}
			info := grace.NewTensorInfo("bench", []int{512, d / 512})
			g := make([]float32, info.Size())
			for i := range g {
				g[i] = float32((i%97))*0.001 - 0.048
			}
			b.SetBytes(int64(4 * d))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := c.Compress(g, info)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Decompress(p, info); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStepExchange compares the sequential per-tensor Pipeline loop
// against the grace.Engine on one full training step: 4 workers over the
// in-process hub exchanging Top-k(5%)-compressed gradients for the cnnsmall
// model's real layer-size distribution (8 tensors, conv kernels through the
// classifier head), with framework error feedback. ns/op is one whole step
// across all workers; allocs/op shows the Engine's buffer reuse.
//
// The engine variant runs twice — telemetry disabled (the default fast path,
// which must not regress Step) and with span recording enabled — and each
// sub-benchmark writes a BENCH_step_exchange_*.json artifact so the
// comparison is committed, not just printed.
func BenchmarkStepExchange(b *testing.B) {
	const workers = 4
	bench, err := harness.BenchmarkByName("cnnsmall")
	if err != nil {
		b.Fatal(err)
	}
	params := bench.NewModel(42).Params()
	infos := make([]grace.TensorInfo, len(params))
	grads := make([][][]float32, workers)
	for rank := range grads {
		grads[rank] = make([][]float32, len(params))
	}
	for i, p := range params {
		infos[i] = grace.NewTensorInfo(p.Name, p.Value.Shape())
		for rank := range grads {
			g := make([]float32, infos[i].Size())
			for j := range g {
				g[j] = float32((j+rank*31+i*7)%101)*0.001 - 0.05
			}
			grads[rank][i] = g
		}
	}
	newComp := func() (grace.Compressor, error) {
		return grace.New("topk", grace.WithRatio(0.05))
	}

	rawBytes := 0
	for _, info := range infos {
		rawBytes += 4 * info.Size()
	}

	// emit writes one sub-benchmark's result as a committed JSON artifact.
	// Allocation figures come from whole-process MemStats deltas over the
	// timed region (the testing package's per-op numbers are not readable
	// from inside the benchmark), so they cover all four workers' goroutines.
	emit := func(b *testing.B, name string, rep *grace.StepReport, ms0, ms1 *runtime.MemStats) {
		a := telemetry.BenchArtifact{
			Name:        "step_exchange_" + name,
			NsPerOp:     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N),
			BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(b.N),
			Extra:       map[string]float64{"workers": workers, "tensors": float64(len(infos))},
		}
		if rep != nil {
			a.SentBytes = int64(rep.SentBytes)
			a.RecvBytes = int64(rep.RecvBytes)
			a.CompressionRatio = float64(rawBytes) / float64(rep.SentBytes)
		}
		path, err := telemetry.WriteBenchArtifact(benchArtifactDir(), a)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("wrote %s", path)
	}

	b.Run("pipeline-sequential", func(b *testing.B) {
		hub := comm.NewHub(workers)
		pipes := make([]*grace.Pipeline, workers)
		for rank := range pipes {
			c, err := newComp()
			if err != nil {
				b.Fatal(err)
			}
			pipes[rank] = &grace.Pipeline{Comp: c, Coll: hub.Worker(rank), Mem: grace.NewMemory(1, 1)}
		}
		b.ReportAllocs()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for rank := 0; rank < workers; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					for t, info := range infos {
						if _, _, err := pipes[rank].Exchange(grads[rank][t], info); err != nil {
							panic(err)
						}
					}
				}(rank)
			}
			wg.Wait()
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		emit(b, "pipeline", nil, &ms0, &ms1)
	})

	// engine runs the telemetry-disabled fast path; engine-telemetry the same
	// workload with span recording on. Comparing their artifacts is the
	// committed proof that disabled telemetry does not tax Engine.Step.
	for _, variant := range []struct {
		name string
		tel  bool
	}{{"engine", false}, {"engine-telemetry", true}} {
		b.Run(variant.name, func(b *testing.B) {
			prev := telemetry.Default.Enabled()
			telemetry.Default.Enable(variant.tel)
			defer telemetry.Default.Enable(prev)
			hub := comm.NewHub(workers)
			engines := make([]*grace.Engine, workers)
			for rank := range engines {
				eng, err := grace.NewEngine(
					grace.WithCollective(hub.Worker(rank)),
					grace.WithCompressorFactory(newComp),
					grace.WithEngineMemory(grace.NewMemory(1, 1)),
				)
				if err != nil {
					b.Fatal(err)
				}
				engines[rank] = eng
			}
			var rep *grace.StepReport
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for rank := 0; rank < workers; rank++ {
					wg.Add(1)
					go func(rank int) {
						defer wg.Done()
						_, r, err := engines[rank].Step(grads[rank], infos)
						if err != nil {
							panic(err)
						}
						if rank == 0 {
							rep = r
						}
					}(rank)
				}
				wg.Wait()
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			emit(b, variant.name, rep, &ms0, &ms1)
		})
	}

	// The tensor-fusion contrast: the same step on a model dominated by many
	// small tensors (the regime where per-tensor collective rounds eat the
	// gains of compression), unfused vs fused. Each variant's artifact
	// records rounds per step — the machine-independent number the CI
	// bench-regression job pins — and the fused run must use at least 4×
	// fewer collective rounds than the per-tensor schedule.
	manyInfos, manyGrads := manySmallTensors(workers)
	fusedRounds := map[string]int{}
	for _, variant := range []struct {
		name string
		fc   grace.FusionConfig
	}{
		{"manysmall-unfused", grace.FusionConfig{}},
		{"manysmall-fused", grace.FusionConfig{TargetBytes: 16 << 10}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			hub := comm.NewHub(workers)
			engines := make([]*grace.Engine, workers)
			for rank := range engines {
				eng, err := grace.NewEngine(
					grace.WithCollective(hub.Worker(rank)),
					grace.WithCompressorFactory(newComp),
					grace.WithEngineMemory(grace.NewMemory(1, 1)),
					grace.WithFusion(variant.fc),
				)
				if err != nil {
					b.Fatal(err)
				}
				engines[rank] = eng
			}
			var rep *grace.StepReport
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for rank := 0; rank < workers; rank++ {
					wg.Add(1)
					go func(rank int) {
						defer wg.Done()
						_, r, err := engines[rank].Step(manyGrads[rank], manyInfos)
						if err != nil {
							panic(err)
						}
						if rank == 0 {
							rep = r
						}
					}(rank)
				}
				wg.Wait()
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			fusedRounds[variant.name] = rep.Rounds
			a := telemetry.BenchArtifact{
				Name:        "step_exchange_" + variant.name,
				NsPerOp:     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N),
				BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(b.N),
				SentBytes:   int64(rep.SentBytes),
				RecvBytes:   int64(rep.RecvBytes),
				Extra: map[string]float64{
					"workers":         workers,
					"tensors":         float64(len(manyInfos)),
					"rounds_per_step": float64(rep.Rounds),
					"fused_buckets":   float64(rep.FusedBuckets),
				},
			}
			path, err := telemetry.WriteBenchArtifact(benchArtifactDir(), a)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("wrote %s", path)
		})
	}
	if u, f := fusedRounds["manysmall-unfused"], fusedRounds["manysmall-fused"]; f*4 > u {
		b.Fatalf("fusion saves too little: %d fused rounds/step vs %d unfused (need >= 4x fewer)", f, u)
	}
}

// manySmallTensors builds the fusion benchmark's layer set: 48 tensors,
// nearly all small (norm scales, biases, tiny projections) plus a couple of
// mid-sized kernels, mirroring how transformer-style parameter lists are
// dominated by count rather than bytes.
func manySmallTensors(workers int) ([]grace.TensorInfo, [][][]float32) {
	var shapes [][]int
	for i := 0; i < 12; i++ {
		shapes = append(shapes, []int{256}, []int{64}, []int{16, 16})
	}
	shapes = append(shapes,
		[]int{64, 64}, []int{64, 64}, []int{128, 32},
		[]int{96}, []int{96}, []int{96}, []int{96},
		[]int{8, 8}, []int{8, 8}, []int{8, 8}, []int{8, 8}, []int{24}, []int{24},
	)
	infos := make([]grace.TensorInfo, len(shapes))
	grads := make([][][]float32, workers)
	for rank := range grads {
		grads[rank] = make([][]float32, len(shapes))
	}
	for i, s := range shapes {
		infos[i] = grace.NewTensorInfo("small"+string(rune('a'+i%26))+string(rune('0'+i/26)), s)
		for rank := range grads {
			g := make([]float32, infos[i].Size())
			for j := range g {
				g[j] = float32((j+rank*13+i*5)%89)*0.001 - 0.044
			}
			grads[rank][i] = g
		}
	}
	return infos, grads
}

func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

func BenchmarkNet25(b *testing.B) { runExperiment(b, "net25") }

func BenchmarkEFAblation(b *testing.B) { runExperiment(b, "efablation") }
