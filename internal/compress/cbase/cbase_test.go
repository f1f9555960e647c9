package cbase

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/encode"
	"repro/internal/fxrand"
	"repro/internal/testrace"
)

func TestEncodeDecodeSparseRoundTrip(t *testing.T) {
	idx := []int{7, 2, 99}
	vals := []float32{0.7, 0.2, 9.9}
	dense, err := DecodeSparse(EncodeSparse(idx, vals), 100)
	if err != nil {
		t.Fatal(err)
	}
	if dense[2] != 0.2 || dense[7] != 0.7 || dense[99] != 9.9 {
		t.Fatalf("round trip wrong: %v %v %v", dense[2], dense[7], dense[99])
	}
	nz := 0
	for _, v := range dense {
		if v != 0 {
			nz++
		}
	}
	if nz != 3 {
		t.Fatalf("%d non-zeros, want 3", nz)
	}
}

func TestEncodeSparseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EncodeSparse([]int{1}, []float32{1, 2})
}

func TestDecodeSparseOutOfRange(t *testing.T) {
	buf := EncodeSparse([]int{5}, []float32{1})
	if _, err := DecodeSparse(buf, 3); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestSparseProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%500) + 10
		r := fxrand.New(seed)
		k := r.Intn(n) + 1
		idx := r.Sample(n, k)
		vals := make([]float32, k)
		for i := range vals {
			vals[i] = r.NormFloat32()
		}
		// Keep reference copies; EncodeSparse mutates its arguments.
		refIdx := append([]int(nil), idx...)
		refVals := append([]float32(nil), vals...)
		dense, err := DecodeSparse(EncodeSparse(idx, vals), n)
		if err != nil {
			return false
		}
		for i, j := range refIdx {
			if dense[j] != refVals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKSelectsLargestMagnitudes(t *testing.T) {
	g := []float32{0.1, -5, 3, -0.2, 4, 0}
	if idx, want := TopK(g, 3), []int{1, 2, 4}; !slices.Equal(idx, want) {
		t.Fatalf("TopK got %v want %v", idx, want)
	}
}

func TestTopKClamps(t *testing.T) {
	g := []float32{1, 2}
	if len(TopK(g, 0)) != 1 {
		t.Fatal("k<1 should clamp to 1")
	}
	if len(TopK(g, 99)) != 2 {
		t.Fatal("k>d should clamp to d")
	}
	if TopK(nil, 3) != nil {
		t.Fatal("empty input should return nil")
	}
}

// topkShapes are the inputs the selection order is pinned on: every way a
// magnitude can tie or be special.
var topkShapes = map[string]func(r *fxrand.RNG, g []float32){
	"normal": func(r *fxrand.RNG, g []float32) {
		for i := range g {
			g[i] = r.NormFloat32()
		}
	},
	"constant": func(r *fxrand.RNG, g []float32) {
		for i := range g {
			g[i] = -0.25
		}
	},
	"allzero": func(r *fxrand.RNG, g []float32) {},
	"mostlyzero-0.5%": func(r *fxrand.RNG, g []float32) { // fewer non-zeros than k = d/100
		for i := range g {
			if r.Intn(200) == 0 {
				g[i] = r.NormFloat32()
			}
		}
	},
	"mostlyzero-5%": func(r *fxrand.RNG, g []float32) { // more non-zeros than k = d/100
		for i := range g {
			if r.Intn(20) == 0 {
				g[i] = r.NormFloat32()
			}
		}
	},
	"signedzero": func(r *fxrand.RNG, g []float32) {
		for i := range g {
			g[i] = [...]float32{0, float32(math.Copysign(0, -1)), 1, -1}[r.Intn(4)]
		}
	},
	"subnormal": func(r *fxrand.RNG, g []float32) {
		for i := range g {
			g[i] = math.Float32frombits(r.Uint32() & 0x7fffff >> uint(r.Intn(20)))
			if r.Intn(2) == 0 {
				g[i] = -g[i]
			}
		}
	},
	"inf": func(r *fxrand.RNG, g []float32) {
		for i := range g {
			g[i] = r.NormFloat32()
			if r.Intn(10) == 0 {
				g[i] = float32(math.Inf(r.Intn(2)*2 - 1))
			}
		}
	},
	"nan": func(r *fxrand.RNG, g []float32) {
		for i := range g {
			switch r.Intn(4) {
			case 0:
				g[i] = math.Float32frombits(0x7fc00000 | r.Uint32()&0x803fffff) // any NaN payload, either sign
			case 1:
				g[i] = r.NormFloat32()
			}
		}
	},
	"fewvalues": func(r *fxrand.RNG, g []float32) { // many ties at every rank, some one ulp apart
		for i := range g {
			g[i] = math.Float32frombits(0x3f800000 + uint32(r.Intn(3)))
		}
	},
}

// TestTopKMatchesReferenceSort pins the documented total order: TopK must
// return exactly the first k indices of a full sort by (|g| descending with
// NaN as 0, index ascending), in ascending index order, and EncodeTopK must
// be the EncodeSparse of that selection.
func TestTopKMatchesReferenceSort(t *testing.T) {
	mag := func(v float32) float64 {
		if v != v {
			return 0
		}
		return math.Abs(float64(v))
	}
	for _, d := range []int{1, 2, 24, 64, 4096, 294912} {
		for name, fill := range topkShapes {
			g := make([]float32, d)
			fill(fxrand.New(uint64(d)), g)
			order := make([]int, d)
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(a, b int) bool { return mag(g[order[a]]) > mag(g[order[b]]) })
			for _, k := range []int{1, d / 100, d / 2, d} {
				k = min(max(k, 1), d)
				want := slices.Clone(order[:k])
				sort.Ints(want)
				if got := TopK(g, k); !slices.Equal(got, want) {
					t.Fatalf("d=%d %s k=%d: TopK differs from the reference sort (first indices got %v want %v)",
						d, name, k, got[:min(k, 8)], want[:min(k, 8)])
				}
				vals := make([]float32, k)
				for n, i := range want {
					vals[n] = g[i]
				}
				if !bytes.Equal(EncodeTopK(g, k), EncodeSparse(want, vals)) {
					t.Fatalf("d=%d %s k=%d: EncodeTopK differs from EncodeSparse of the selection", d, name, k)
				}
			}
		}
	}
}

// TestEncodeSparseWireFormat pins the bytes against the format spelled out
// with the encode primitives, for sorted and unsorted input alike.
func TestEncodeSparseWireFormat(t *testing.T) {
	r := fxrand.New(5)
	for _, n := range []int{0, 1, 3, 200, 5000} {
		idx := r.Sample(1<<uint(3+r.Intn(20))+n, n)
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = r.NormFloat32()
		}
		byIdx := map[int]float32{}
		for i, j := range idx {
			byIdx[j] = vals[i]
		}
		sorted := slices.Clone(idx)
		sort.Ints(sorted)
		w := encode.NewWriter(0)
		w.BytesSlice(encode.EncodeIndices(sorted))
		for _, j := range sorted {
			w.F32(byIdx[j])
		}
		if got := EncodeSparse(idx, vals); !bytes.Equal(got, w.Bytes()) {
			t.Fatalf("n=%d: unsorted input encodes to the wrong bytes", n)
		}
		// idx and vals are sorted now; the no-sort path must agree.
		if got := EncodeSparse(idx, vals); !bytes.Equal(got, w.Bytes()) {
			t.Fatalf("n=%d: sorted input encodes to the wrong bytes", n)
		}
	}
}

func TestEncodeSparseDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate index")
		}
	}()
	EncodeSparse([]int{4, 1, 4}, []float32{1, 2, 3})
}

// TestTopKDegenerateInputCost is the regression test for the quadratic case:
// a mostly-zero tensor used to cost 100x a normal one of the same size under
// the quickselect; a linear-time selection keeps it within a small factor.
func TestTopKDegenerateInputCost(t *testing.T) {
	if testrace.Enabled || testing.Short() {
		t.Skip("timing comparison")
	}
	const d = 294912
	normal, sparse := benchInput("normal", d), benchInput("mostlyzero", d)
	best := func(g []float32) time.Duration {
		b := time.Duration(math.MaxInt64)
		for i := 0; i < 10; i++ {
			t0 := time.Now()
			TopK(g, d/100)
			b = min(b, time.Since(t0))
		}
		return b
	}
	// Best-of-ten per side, and three tries, so a scheduling hiccup on one
	// side cannot fail the test; a quadratic selection fails all three.
	var n, s time.Duration
	for try := 0; try < 3; try++ {
		n, s = best(normal), best(sparse)
		if s <= 3*n {
			return
		}
	}
	t.Fatalf("mostly-zero input took %v, normal input %v: more than 3x", s, n)
}

func TestQuantileAbsThreshold(t *testing.T) {
	// On a large uniform sample the threshold for ratio r should sit near
	// the (1-r) quantile of |g|.
	r := fxrand.New(3)
	g := make([]float32, 10000)
	for i := range g {
		g[i] = r.Float32()*2 - 1
	}
	th := QuantileAbsThreshold(g, 0.1, 4096, 1)
	if th < 0.8 || th > 0.95 {
		t.Fatalf("threshold %v, want ~0.9 for 10%% of U(-1,1)", th)
	}
	selected := 0
	for _, v := range g {
		if math.Abs(float64(v)) >= float64(th) {
			selected++
		}
	}
	ratio := float64(selected) / float64(len(g))
	if ratio < 0.05 || ratio > 0.2 {
		t.Fatalf("threshold selects %v, want ~0.1", ratio)
	}
}

func TestQuantileAbsThresholdEdges(t *testing.T) {
	if QuantileAbsThreshold(nil, 0.5, 100, 1) != 0 {
		t.Fatal("empty input should give 0")
	}
	if QuantileAbsThreshold([]float32{1, 2}, 1.0, 100, 1) != 0 {
		t.Fatal("ratio >= 1 should give 0 (select everything)")
	}
}

func TestKFor(t *testing.T) {
	if KFor(0.01, 100) != 1 || KFor(0.5, 100) != 50 || KFor(0.0001, 100) != 1 || KFor(2, 100) != 100 {
		t.Fatal("KFor clamping wrong")
	}
}
