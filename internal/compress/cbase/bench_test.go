package cbase

import (
	"fmt"
	"testing"

	"repro/internal/fxrand"
)

// benchInput builds one of the three input shapes the top-k kernel is
// measured on: normal data, a mostly-zero tensor (0.5 % non-zeros, an
// embedding or dead-ReLU gradient) and a constant tensor (every magnitude
// ties).
func benchInput(shape string, d int) []float32 {
	r := fxrand.New(7)
	g := make([]float32, d)
	for i := range g {
		switch shape {
		case "normal":
			g[i] = r.NormFloat32()
		case "mostlyzero":
			if r.Intn(200) == 0 {
				g[i] = r.NormFloat32()
			}
		case "constant":
			g[i] = 0.25
		}
	}
	return g
}

var topkSink []int

// BenchmarkTopK is the codec-kernel row of the layer ledger: selection cost
// per input byte across the tensor sizes the benchmark workloads use (24 to
// 4 096 in the manysmall pair, 196 608 and 294 912 in train_tcp_topk).
func BenchmarkTopK(b *testing.B) {
	for _, d := range []int{24, 64, 256, 4096, 196608, 294912} {
		for _, shape := range []string{"normal", "mostlyzero", "constant"} {
			g := benchInput(shape, d)
			for _, ratio := range []float64{0.01, 0.05} {
				b.Run(fmt.Sprintf("d=%d/%s/r=%v", d, shape, ratio), func(b *testing.B) {
					k := KFor(ratio, d)
					b.SetBytes(int64(4 * d))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						topkSink = TopK(g, k)
					}
				})
			}
		}
	}
}
