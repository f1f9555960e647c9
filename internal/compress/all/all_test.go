package all_test

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/fxrand"
	"repro/internal/grace"
	"repro/internal/tensor"
)

// The 18 methods of DESIGN.md §4 (16 paper methods + baseline + extension
// hooks); keep in sync with the registry.
var wantMethods = []string{
	"none",
	"eightbit", "onebit", "signsgd", "signsgdmv", "signum", "qsgd", "natural", "terngrad", "efsignsgd", "inceptionn",
	"randomk", "topk", "thresholdv", "dgc",
	"adaptive", "sketchml", "threelc",
	"atomo", "huffterngrad", "huffqsgd",
	"powersgd",
}

func newCompressor(t *testing.T, name string, seed uint64) grace.Compressor {
	t.Helper()
	c, err := grace.New(name, grace.Options{Seed: seed})
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	return c
}

func randomGrad(seed uint64, d int) []float32 {
	r := fxrand.New(seed)
	g := make([]float32, d)
	for i := range g {
		g[i] = r.NormFloat32() * 0.1
	}
	return g
}

func TestRegistryHasAllMethods(t *testing.T) {
	for _, name := range wantMethods {
		if _, err := grace.Lookup(name); err != nil {
			t.Errorf("missing method %q: %v", name, err)
		}
	}
	if got := len(grace.Names()); got < len(wantMethods) {
		t.Fatalf("registry has %d methods, want >= %d", got, len(wantMethods))
	}
}

func TestTableIMetadata(t *testing.T) {
	// Spot-check taxonomy entries against the paper's Table I.
	cases := map[string]struct{ class, nature string }{
		"qsgd":     {"quantization", "randomized"},
		"signsgd":  {"quantization", "deterministic"},
		"topk":     {"sparsification", "deterministic"},
		"randomk":  {"sparsification", "randomized"},
		"adaptive": {"hybrid", "deterministic"},
		"sketchml": {"hybrid", "randomized"},
		"powersgd": {"lowrank", "deterministic"},
		"none":     {"baseline", "deterministic"},
	}
	for name, want := range cases {
		m, err := grace.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Class != want.class || m.Nature != want.nature {
			t.Errorf("%s: class/nature = %s/%s, want %s/%s", name, m.Class, m.Nature, want.class, want.nature)
		}
	}
	// Built-in EF methods must be flagged so the framework memory stays off;
	// every other method's residual belongs to grace.Memory.
	builtin := map[string]bool{"dgc": true, "powersgd": true}
	for _, m := range grace.All() {
		if m.BuiltinEF != builtin[m.Name] {
			t.Errorf("%s: BuiltinEF = %v, want %v", m.Name, m.BuiltinEF, builtin[m.Name])
		}
	}
}

// TestRoundTripShape verifies the fundamental decompression contract for
// every registered method over several tensor geometries.
func TestRoundTripShape(t *testing.T) {
	shapes := [][]int{{64}, {16, 16}, {8, 4, 3, 3}, {1}, {37}}
	for _, name := range grace.Names() {
		for si, shape := range shapes {
			info := grace.NewTensorInfo("t", shape)
			c := newCompressor(t, name, 7)
			g := randomGrad(uint64(si)+1, info.Size())
			p, err := c.Compress(g, info)
			if err != nil {
				t.Fatalf("%s compress %v: %v", name, shape, err)
			}
			if p.WireBytes() <= 0 {
				t.Fatalf("%s produced empty payload for %v", name, shape)
			}
			out, err := c.Decompress(p, info)
			if err != nil {
				t.Fatalf("%s decompress %v: %v", name, shape, err)
			}
			if len(out) != info.Size() {
				t.Fatalf("%s: decompressed %d elements for shape %v (%d)", name, len(out), shape, info.Size())
			}
			for i, v := range out {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("%s produced non-finite value at %d", name, i)
				}
			}
		}
	}
}

// TestCompressionRatios checks each method's wire size against its format's
// expected footprint on a 10k-element gradient.
func TestCompressionRatios(t *testing.T) {
	const d = 10000
	info := grace.NewTensorInfo("t", []int{100, 100})
	g := randomGrad(3, d)
	full := 4 * d

	maxBytes := map[string]int{
		"none":         full,             // dense baseline
		"signsgd":      d/8 + 16,         // 1 bit/elem
		"signum":       d/8 + 16,         // 1 bit/elem
		"signsgdmv":    d/8 + 16,         // 1 bit/elem, majority-vote agg
		"efsignsgd":    d/8 + 16,         // 1 bit/elem + scale
		"onebit":       d/8 + 24,         // 1 bit/elem + two means
		"terngrad":     d/4 + 16,         // 2 bits/elem
		"qsgd":         d + 16,           // 8 bits/elem at s=64 (7 level + 1 sign)
		"natural":      d + 8,            // 1 byte/elem
		"eightbit":     d + 8,            // 1 byte/elem + norm
		"inceptionn":   d/4 + 5*d/2 + 64, // tags + mixed fp8/f16/f32 bodies
		"topk":         d/100*8 + 64,     // 1% of (4B value + ~2B index) with slack
		"randomk":      d/100*8 + 64,
		"dgc":          d/50*8 + 64, // adaptive; generous cap at 2%
		"adaptive":     d/100*4 + 96,
		"sketchml":     2*d + 600,               // dense input: packed ids + boundaries
		"threelc":      d/2 + 64,                // <= 1.6 bits/elem before RLE
		"powersgd":     4 * 4 * (100 + 100) * 2, // rank-4 factors with slack
		"atomo":        8*(100+100+1)*4 + 16,    // up to 8 sampled triples
		"huffterngrad": d/4 + 320,               // entropy-coded 2-bit symbols
		"huffqsgd":     d/2 + 320,               // entropy-coded 4-bit symbols (s=8)
		"thresholdv":   full * 5 / 4,            // threshold 0.01 on N(0,0.1²) keeps most; index overhead inflates
	}
	for _, name := range grace.Names() {
		c := newCompressor(t, name, 5)
		p, err := c.Compress(g, info)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cap, ok := maxBytes[name]
		if !ok {
			t.Fatalf("no wire-size expectation for %q; add one", name)
		}
		if p.WireBytes() > cap {
			t.Errorf("%s: wire %d bytes exceeds expected cap %d", name, p.WireBytes(), cap)
		}
	}
}

// TestDeterministicMethodsAreDeterministic compares payloads from two
// independent instances on the same input.
func TestDeterministicMethodsAreDeterministic(t *testing.T) {
	info := grace.NewTensorInfo("t", []int{40, 25})
	g := randomGrad(11, info.Size())
	for _, m := range grace.All() {
		if m.Nature != "deterministic" || m.Name == "powersgd" {
			// PowerSGD's payload depends on warm-start state; covered by its
			// own test below.
			continue
		}
		a := newCompressor(t, m.Name, 1)
		b := newCompressor(t, m.Name, 2) // different seed must not matter
		pa, err := a.Compress(g, info)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.Compress(g, info)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa.Bytes, pb.Bytes) || !f32Equal(pa.Dense, pb.Dense) {
			t.Errorf("%s: deterministic method produced differing payloads", m.Name)
		}
	}
}

func TestRandomizedMethodsUseSeed(t *testing.T) {
	info := grace.NewTensorInfo("t", []int{1000})
	g := randomGrad(13, info.Size())
	for _, m := range grace.All() {
		if m.Nature != "randomized" {
			continue
		}
		same1 := newCompressor(t, m.Name, 42)
		same2 := newCompressor(t, m.Name, 42)
		p1, _ := same1.Compress(g, info)
		p2, _ := same2.Compress(g, info)
		if !bytes.Equal(p1.Bytes, p2.Bytes) {
			t.Errorf("%s: same seed produced different payloads", m.Name)
		}
		if m.Name == "sketchml" || m.Name == "atomo" {
			// SketchML's sketch is deterministic given the input; ATOMO hits
			// its dense fallback on vector shapes (its randomized sampling
			// is covered by TestATOMOSampling below).
			continue
		}
		diff := newCompressor(t, m.Name, 43)
		p3, _ := diff.Compress(g, info)
		if bytes.Equal(p1.Bytes, p3.Bytes) {
			t.Errorf("%s: different seeds produced identical payloads", m.Name)
		}
	}
}

// TestUnbiasedCompressors verifies E[Q(x)] ≈ x for the unbiased operators.
func TestUnbiasedCompressors(t *testing.T) {
	const trials = 3000
	info := grace.NewTensorInfo("t", []int{8})
	g := []float32{0.5, -0.3, 0.02, -0.9, 0.11, 0, 0.77, -0.05}
	for _, name := range []string{"qsgd", "terngrad", "natural"} {
		c := newCompressor(t, name, 99)
		mean := make([]float64, len(g))
		for trial := 0; trial < trials; trial++ {
			p, err := c.Compress(g, info)
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.Decompress(p, info)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				mean[i] += float64(v) / trials
			}
		}
		for i := range g {
			tol := 0.05*math.Abs(float64(g[i])) + 0.02
			if math.Abs(mean[i]-float64(g[i])) > tol {
				t.Errorf("%s: E[Q(x)][%d] = %v, want %v (±%v)", name, i, mean[i], g[i], tol)
			}
		}
	}
}

// TestTopKContraction verifies the δ-compressor property
// ‖x − Q(x)‖² ≤ (1 − k/d)‖x‖².
func TestTopKContraction(t *testing.T) {
	info := grace.NewTensorInfo("t", []int{1000})
	g := randomGrad(17, 1000)
	c, err := grace.New("topk", grace.Options{Ratio: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := c.Compress(g, info)
	out, _ := c.Decompress(p, info)
	var errSq, normSq float64
	for i := range g {
		diff := float64(g[i] - out[i])
		errSq += diff * diff
		normSq += float64(g[i]) * float64(g[i])
	}
	if errSq > (1-0.1)*normSq {
		t.Fatalf("topk residual %v exceeds δ bound %v", errSq, 0.9*normSq)
	}
	// And strictly better than random selection would guarantee on average.
	if errSq > 0.8*normSq {
		t.Fatalf("topk kept too little mass: residual ratio %v", errSq/normSq)
	}
}

func TestTopKSelectsLargest(t *testing.T) {
	info := grace.NewTensorInfo("t", []int{6})
	g := []float32{-0.1, 1.2, 3, 0, -3.5, 0.2}
	c, err := grace.New("topk", grace.Options{Ratio: 0.34}) // k = 2
	if err != nil {
		t.Fatal(err)
	}
	p, _ := c.Compress(g, info)
	out, _ := c.Decompress(p, info)
	want := []float32{0, 0, 3, 0, -3.5, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("topk got %v want %v", out, want)
		}
	}
}

func TestSignPreservation(t *testing.T) {
	// Where the decoded value is non-zero, it must carry the input's sign
	// for every deterministic sign-respecting method.
	info := grace.NewTensorInfo("t", []int{500})
	g := randomGrad(19, 500)
	for _, name := range []string{"signsgd", "efsignsgd", "eightbit", "topk", "thresholdv", "natural", "qsgd", "terngrad", "inceptionn"} {
		c := newCompressor(t, name, 3)
		p, err := c.Compress(g, info)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Decompress(p, info)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g {
			if out[i] != 0 && g[i] != 0 && (out[i] > 0) != (g[i] > 0) {
				t.Errorf("%s flipped sign at %d: %v -> %v", name, i, g[i], out[i])
			}
		}
	}
}

func TestEightbitRelativeAccuracy(t *testing.T) {
	info := grace.NewTensorInfo("t", []int{1000})
	g := randomGrad(23, 1000)
	c := newCompressor(t, "eightbit", 1)
	p, _ := c.Compress(g, info)
	out, _ := c.Decompress(p, info)
	norm := tensor.NormInfF32(g)
	for i := range g {
		if math.Abs(float64(g[i]))/norm < 1.0/32 {
			continue // below fp8 resolution relative to the scale
		}
		rel := math.Abs(float64(out[i]-g[i])) / math.Abs(float64(g[i]))
		if rel > 0.08 {
			t.Fatalf("eightbit relative error %v at %d (%v -> %v)", rel, i, g[i], out[i])
		}
	}
}

func TestOnebitFrameworkMemory(t *testing.T) {
	// Feeding a constant gradient, the cumulative decoded mass must approach
	// the cumulative input mass thanks to the framework error feedback.
	info := grace.NewTensorInfo("t", []int{4})
	g := []float32{1, 0.5, -0.25, -1}
	c := newCompressor(t, "onebit", 1)
	mem := grace.NewMemory(1, 1)
	total := make([]float64, 4)
	const steps = 50
	for s := 0; s < steps; s++ {
		x := mem.Compensate(info.Name, g)
		p, err := c.Compress(x, info)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := c.Decompress(p, info)
		mem.Update(info.Name, x, out)
		for i, v := range out {
			total[i] += float64(v)
		}
	}
	for i := range g {
		if math.Abs(total[i]-float64(g[i])*steps) > 3 {
			t.Fatalf("onebit EF drift at %d: delivered %v of %v", i, total[i], float64(g[i])*steps)
		}
	}
}

func TestThreeLCCompressesSparseWell(t *testing.T) {
	// With s close to 2 most elements quantize to zero, and ZRLE should
	// crush the payload far below 2 bits/element.
	info := grace.NewTensorInfo("t", []int{10000})
	r := fxrand.New(5)
	g := make([]float32, 10000)
	for i := range g {
		if r.Bernoulli(0.01) {
			g[i] = r.NormFloat32()
		} else {
			g[i] = r.NormFloat32() * 0.001
		}
	}
	c, err := grace.New("threelc", grace.Options{Threshold: 1.9})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Compress(g, info)
	if err != nil {
		t.Fatal(err)
	}
	if p.WireBytes() > 1500 {
		t.Fatalf("threelc payload %d bytes; expected heavy RLE compression", p.WireBytes())
	}
	if _, err := c.Decompress(p, info); err != nil {
		t.Fatal(err)
	}
}

func TestSketchMLBucketsApproximate(t *testing.T) {
	info := grace.NewTensorInfo("t", []int{5000})
	g := randomGrad(31, 5000)
	c, err := grace.New("sketchml", grace.Options{Levels: 256})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := c.Compress(g, info)
	out, _ := c.Decompress(p, info)
	// Bucket midpoints must preserve the overall magnitude distribution:
	// check the mean absolute error is a small fraction of the value scale.
	var mae, scale float64
	for i := range g {
		mae += math.Abs(float64(out[i] - g[i]))
		scale += math.Abs(float64(g[i]))
	}
	if mae/scale > 0.15 {
		t.Fatalf("sketchml MAE ratio %v too high", mae/scale)
	}
}

func TestPowerSGDExactForLowRank(t *testing.T) {
	// A rank-1 matrix must be reconstructed (nearly) exactly by rank-4
	// PowerSGD once the power iteration has locked on.
	rows, cols := 32, 16
	info := grace.NewTensorInfo("w", []int{rows, cols})
	r := fxrand.New(7)
	u := make([]float32, rows)
	v := make([]float32, cols)
	for i := range u {
		u[i] = r.NormFloat32()
	}
	for i := range v {
		v[i] = r.NormFloat32()
	}
	g := make([]float32, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			g[i*cols+j] = u[i] * v[j]
		}
	}
	c, err := grace.New("powersgd", grace.Options{Rank: 4})
	if err != nil {
		t.Fatal(err)
	}
	var out []float32
	for iter := 0; iter < 3; iter++ { // warm start converges
		p, err := c.Compress(g, info)
		if err != nil {
			t.Fatal(err)
		}
		out, err = c.Decompress(p, info)
		if err != nil {
			t.Fatal(err)
		}
	}
	var errSq, normSq float64
	for i := range g {
		diff := float64(out[i] - g[i])
		errSq += diff * diff
		normSq += float64(g[i]) * float64(g[i])
	}
	if errSq/normSq > 1e-4 {
		t.Fatalf("powersgd rank-1 reconstruction error ratio %v", errSq/normSq)
	}
}

func TestPowerSGDDenseFallbackForVectors(t *testing.T) {
	info := grace.NewTensorInfo("b", []int{10})
	g := randomGrad(3, 10)
	c, err := grace.New("powersgd", grace.Options{Rank: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Compress(g, info)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decompress(p, info)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g {
		if out[i] != g[i] {
			t.Fatal("vector fallback must be lossless")
		}
	}
}

func TestPowerSGDCustomCommAggregates(t *testing.T) {
	const n = 4
	rows, cols := 16, 12
	info := grace.NewTensorInfo("w", []int{rows, cols})
	hub := comm.NewHub(n)
	outs := make([][]float32, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := grace.New("powersgd", grace.Options{Rank: 4})
			if err != nil {
				panic(err)
			}
			cc := c.(grace.CustomComm)
			g := randomGrad(uint64(rank)+1, rows*cols)
			agg, sent, err := cc.CommunicateAggregate(g, info, hub.Worker(rank))
			if err != nil {
				panic(err)
			}
			if sent != 4*4*(rows+cols) {
				panic("sent bytes wrong")
			}
			outs[rank] = agg
		}(rank)
	}
	wg.Wait()
	for rank := 1; rank < n; rank++ {
		for i := range outs[0] {
			if outs[rank][i] != outs[0][i] {
				t.Fatalf("powersgd workers disagree at %d", i)
			}
		}
	}
}

func TestDGCAccumulatesUntilSent(t *testing.T) {
	// Elements never selected must keep accumulating (momentum + residual),
	// eventually forcing transmission.
	info := grace.NewTensorInfo("t", []int{100})
	g := make([]float32, 100)
	for i := range g {
		g[i] = 0.001
	}
	g[0] = 0.5 // dominates early selections
	c, err := grace.New("dgc", grace.Options{Ratio: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	sentOther := false
	for iter := 0; iter < 200 && !sentOther; iter++ {
		p, err := c.Compress(g, info)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := c.Decompress(p, info)
		for i := 1; i < len(out); i++ {
			if out[i] != 0 {
				sentOther = true
			}
		}
	}
	if !sentOther {
		t.Fatal("dgc never transmitted the small accumulated elements")
	}
}

func TestAdaptiveMeansMatchParts(t *testing.T) {
	info := grace.NewTensorInfo("t", []int{8})
	g := []float32{4, 3, -6, -1, 0.5, -0.2, 2, -5}
	c, err := grace.New("adaptive", grace.Options{Ratio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := c.Compress(g, info)
	out, _ := c.Decompress(p, info)
	for i := range g {
		if out[i] != 0 {
			if (out[i] > 0) != (g[i] > 0) {
				t.Fatalf("adaptive sign mismatch at %d", i)
			}
		}
	}
	// The largest-magnitude element of each sign must be selected.
	if out[0] == 0 || out[2] == 0 {
		t.Fatalf("adaptive missed the largest elements: %v", out)
	}
}

func TestZeroGradientAllMethods(t *testing.T) {
	info := grace.NewTensorInfo("t", []int{64})
	g := make([]float32, 64)
	for _, name := range grace.Names() {
		c := newCompressor(t, name, 1)
		p, err := c.Compress(g, info)
		if err != nil {
			t.Fatalf("%s on zero gradient: %v", name, err)
		}
		out, err := c.Decompress(p, info)
		if err != nil {
			t.Fatalf("%s decompress zero: %v", name, err)
		}
		for i, v := range out {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite at %d on zero input", name, i)
			}
		}
	}
}

func f32Equal(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPipelineMeanInvariant verifies Algorithm 1's aggregation contract for
// every default-Agg allgather method: the pipeline's output equals the mean
// of the locally decompressed payloads.
func TestPipelineMeanInvariant(t *testing.T) {
	const n = 3
	info := grace.NewTensorInfo("t", []int{30, 10})
	for _, name := range grace.Names() {
		meta, _ := grace.Lookup(name)
		ref, err := grace.New(name, grace.Options{Seed: 500})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Strategy() != grace.Allgather {
			continue
		}
		if _, custom := ref.(grace.Aggregator); custom {
			continue
		}
		// Reference: compress+decompress each worker's gradient locally with
		// per-rank seeded instances.
		grads := make([][]float32, n)
		want := make([]float32, info.Size())
		for rank := 0; rank < n; rank++ {
			grads[rank] = randomGrad(uint64(rank)+50, info.Size())
			c, err := grace.New(name, grace.Options{Seed: 500 + uint64(rank)})
			if err != nil {
				t.Fatal(err)
			}
			p, err := c.Compress(grads[rank], info)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			dec, err := c.Decompress(p, info)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, v := range dec {
				want[i] += v / n
			}
		}
		// Pipeline run with identically seeded instances.
		hub := comm.NewHub(n)
		got := make([][]float32, n)
		var wg sync.WaitGroup
		errs := make([]error, n)
		for rank := 0; rank < n; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c, err := grace.New(name, grace.Options{Seed: 500 + uint64(rank)})
				if err != nil {
					errs[rank] = err
					return
				}
				pipe := &grace.Pipeline{Comp: c, Coll: hub.Worker(rank)}
				got[rank], _, errs[rank] = pipe.Exchange(grads[rank], info)
			}(rank)
		}
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("%s rank %d: %v", name, rank, err)
			}
		}
		_ = meta
		for rank := 0; rank < n; rank++ {
			for i := range want {
				diff := float64(got[rank][i] - want[i])
				if diff > 1e-5 || diff < -1e-5 {
					t.Fatalf("%s: rank %d agg[%d] = %v, want %v", name, rank, i, got[rank][i], want[i])
				}
			}
		}
	}
}
