package topk

import (
	"testing"

	"repro/internal/fxrand"
	"repro/internal/grace"
	"repro/internal/testrace"
)

func TestExactSelectionCount(t *testing.T) {
	for _, ratio := range []float64{0.01, 0.1, 0.5, 1.0} {
		c, err := grace.New("topk", grace.Options{Ratio: ratio})
		if err != nil {
			t.Fatal(err)
		}
		r := fxrand.New(1)
		const d = 1000
		g := make([]float32, d)
		for i := range g {
			g[i] = r.NormFloat32()
		}
		info := grace.NewTensorInfo("t", []int{d})
		p, _ := c.Compress(g, info)
		out, _ := c.Decompress(p, info)
		nz := 0
		for _, v := range out {
			if v != 0 {
				nz++
			}
		}
		want := int(ratio * d)
		if nz != want {
			t.Fatalf("ratio %v: selected %d, want %d", ratio, nz, want)
		}
	}
}

func TestSelectedValuesAreExact(t *testing.T) {
	// Top-k is lossless on the selected coordinates.
	c, _ := grace.New("topk", grace.Options{Ratio: 0.2})
	r := fxrand.New(2)
	g := make([]float32, 500)
	for i := range g {
		g[i] = r.NormFloat32()
	}
	info := grace.NewTensorInfo("t", []int{500})
	p, _ := c.Compress(g, info)
	out, _ := c.Decompress(p, info)
	for i, v := range out {
		if v != 0 && v != g[i] {
			t.Fatalf("selected value altered at %d: %v vs %v", i, v, g[i])
		}
	}
}

func TestRatioOneIsLossless(t *testing.T) {
	c, _ := grace.New("topk", grace.Options{Ratio: 1.0})
	g := []float32{1, -2, 0, 3.5}
	info := grace.NewTensorInfo("t", []int{4})
	p, _ := c.Compress(g, info)
	out, _ := c.Decompress(p, info)
	for i := range g {
		if out[i] != g[i] {
			t.Fatalf("ratio 1.0 lost data: %v vs %v", out, g)
		}
	}
}

func TestRejectsBadRatio(t *testing.T) {
	if _, err := grace.New("topk", grace.Options{Ratio: 1.5}); err == nil {
		t.Fatal("expected error for ratio > 1")
	}
	if _, err := grace.New("topk", grace.Options{Ratio: -0.1}); err == nil {
		t.Fatal("expected error for negative ratio")
	}
}

// TestTopKCompressAllocs pins the one-pass encode: Compress allocates the
// payload bytes and the Payload, and nothing per selected element.
func TestTopKCompressAllocs(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	c, err := grace.New("topk", grace.Options{Ratio: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	r := fxrand.New(3)
	g := make([]float32, 196608)
	for i := range g {
		g[i] = r.NormFloat32()
	}
	info := grace.NewTensorInfo("t", []int{len(g)})
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Compress(g, info); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("topk.Compress: %v allocs/op, want <= 2", allocs)
	}
}
