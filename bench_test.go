// Benchmarks regenerating the paper's tables and figures (one bench target
// per table/figure, per DESIGN.md §5). Each target runs the corresponding
// harness experiment at a reduced scale so `go test -bench=.` finishes in
// minutes; the gracebench CLI runs the full-scale versions.
package repro_test

import (
	"io"
	"testing"

	_ "repro/internal/compress/all"
	"repro/internal/grace"
	"repro/internal/harness"
	"repro/internal/simnet"
)

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

func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

func BenchmarkNet25(b *testing.B) { runExperiment(b, "net25") }

func BenchmarkEFAblation(b *testing.B) { runExperiment(b, "efablation") }
