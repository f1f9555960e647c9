package cbase

import (
	"bytes"
	"fmt"
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
	// The rest defeat a strided sample of every (d/sampleLen)-th key.
	"between-samples": func(r *fxrand.RNG, g []float32) { // the sample sees only small values
		s := sampleStride(len(g))
		for i := range g {
			g[i] = r.NormFloat32()
			if i%s != 0 {
				g[i] *= 1e6
			}
		}
	},
	"on-samples": func(r *fxrand.RNG, g []float32) { // the sample sees only large values: the guess misses
		s := sampleStride(len(g))
		for i := range g {
			g[i] = r.NormFloat32()
			if i%s == 0 {
				g[i] *= 1e6
			}
		}
	},
	"ramp": func(r *fxrand.RNG, g []float32) {
		for i := range g {
			g[i] = float32(i) / float32(len(g))
		}
	},
	"periodic": func(r *fxrand.RNG, g []float32) { // every sample point holds the period's peak
		s := sampleStride(len(g))
		for i := range g {
			g[i] = float32(s - i%s)
		}
	},
	"nan-inf-runs": func(r *fxrand.RNG, g []float32) {
		for i := range g {
			switch i / 37 % 5 {
			case 1:
				g[i] = float32(math.NaN())
			case 3:
				g[i] = float32(math.Inf(1))
			default:
				g[i] = r.NormFloat32()
			}
		}
	},
}

// sampleStride is the spacing of the sampled selection's sample at length d.
func sampleStride(d int) int { return max(d/sampleLen, 1) }

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
	for _, d := range []int{1, 2, 24, 64, 4096, 32767, 32768, 196608, 294912} {
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

// TestTopKSampledPaths pins which way the sampled selection goes on the
// shapes built to steer it, so the reference-sort test above really covers
// each exit: the guess holds on normal data and takes the zero-key exit when
// k exceeds the non-zero count (mostlyzero-0.5%); it falls back to the exact
// selection when the sample sees only the large values (too few hits) or
// only the small ones, every key ties, or NaN runs qualify (too many). Every
// exit must return the exact selection's winners.
func TestTopKSampledPaths(t *testing.T) {
	const d = 196608
	for _, tc := range []struct {
		shape    string
		fallback bool
	}{
		{"normal", false},
		{"mostlyzero-0.5%", false},
		{"mostlyzero-5%", false},
		{"between-samples", true},
		{"on-samples", true},
		{"periodic", false},
		{"constant", true},
		{"nan-inf-runs", true},
	} {
		g := make([]float32, d)
		topkShapes[tc.shape](fxrand.New(9), g)
		k := d / 100
		var sc selScratch
		got := slices.Clone(sc.sampled(g, k))
		if (got == nil) != tc.fallback {
			t.Fatalf("%s: sampled selection fell back = %v, want %v", tc.shape, got == nil, tc.fallback)
		}
		want, _ := sc.exact(g, k)
		if got != nil && !slices.Equal(got, want) {
			t.Fatalf("%s: sampled selection differs from the exact one", tc.shape)
		}
	}
}

// scanOperand is an operand of the scan kernel test: random magnitudes or,
// with special set, the values whose keys sit at the edges of the order.
func scanOperand(r *fxrand.RNG, n int, special bool) []float32 {
	specials := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), math.Float32frombits(0x807fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.Float32frombits(0xffc00001), 1, -1}
	g := make([]float32, n)
	for i := range g {
		g[i] = r.NormFloat32()
		if special && r.Intn(3) == 0 {
			g[i] = specials[r.Intn(len(specials))]
		}
	}
	return g
}

// TestScanMatchesGeneric holds scanBlocks (the SSE2 kernel on amd64) to its
// Go twin at every length to 130 and offsets 0-3, over special values and
// thresholds equal to keys in the operand. The kernel writes without bounds
// checks, so it must also leave out untouched past the count it returns.
func TestScanMatchesGeneric(t *testing.T) {
	r := fxrand.New(11)
	const pad, sentinel = 5, 0xdeadbeef
	for n := 0; n <= 130; n++ {
		for off := 0; off <= 3; off++ {
			for _, special := range []bool{false, true} {
				g := scanOperand(r, off+n, special)[off:]
				ts := []uint32{1, 2, 0xff000000, 0xff000001, 0x7f000000}
				for i := 0; i < n; i += 7 {
					ts = append(ts, max(math.Float32bits(g[i])<<1, 1))
				}
				for _, th := range ts {
					got := make([]uint32, n+pad)
					for i := range got {
						got[i] = sentinel
					}
					want := make([]uint32, n)
					m := scanBlocks(g, th, 100, got)
					w := scanGeneric(g, th, 100, want)
					if m != w || !slices.Equal(got[:m], want[:w]) {
						t.Fatalf("n=%d off=%d t=%#x: kernel hits %v, generic %v", n, off, th, got[:m], want[:w])
					}
					for i := m; i < len(got); i++ {
						if got[i] != sentinel {
							t.Fatalf("n=%d off=%d t=%#x: out[%d] beyond the %d hits was written", n, off, th, i, m)
						}
					}
				}
			}
		}
	}
}

// decodeSparseOracle is the decoder DecodeSparseInto replaced, kept as its
// differential oracle: it decodes the index block with encode.DecodeIndices
// and then reads the values.
func decodeSparseOracle(buf []byte, dst []float32) error {
	r := encode.NewReader(buf)
	idxBlock := r.BytesSlice()
	if r.Err() != nil {
		return r.Err()
	}
	idx, err := encode.DecodeIndices(idxBlock)
	if err != nil {
		return err
	}
	clear(dst)
	for _, i := range idx {
		if i < 0 || i >= len(dst) {
			return fmt.Errorf("sparse index %d out of size %d", i, len(dst))
		}
		dst[i] = r.F32()
	}
	return r.Err()
}

// dupIndexPayload lists index 3 twice: index block [2 4 0] (two indices,
// deltas 4 and 0), values 1.5 and -7. No encoder writes it; the oracle
// accepted it and let the second value win.
var dupIndexPayload = []byte{3, 2, 4, 0, 0, 0, 0xc0, 0x3f, 0, 0, 0xe0, 0xc0}

func TestDecodeSparseRejectsRepeatedIndex(t *testing.T) {
	dst := make([]float32, 8)
	if err := decodeSparseOracle(dupIndexPayload, dst); err != nil || dst[3] != -7 {
		t.Fatalf("the payload no longer shows the oracle's defect: err %v, dst[3] = %v", err, dst[3])
	}
	if err := DecodeSparseInto(dupIndexPayload, dst); err == nil {
		t.Fatal("DecodeSparseInto accepted a repeated index")
	}
}

// TestDecodeSparseMatchesOracle runs the streaming decoder and the oracle on
// every payload the encoders write, over sizes and densities, and on
// truncated and bit-flipped copies of them. On an encoder's payload both
// must accept with bitwise the same dst; on any other the streaming decoder
// may reject more, never accept what the oracle rejects, and when both
// accept they agree.
func TestDecodeSparseMatchesOracle(t *testing.T) {
	r := fxrand.New(13)
	for trial := 0; trial < 300; trial++ {
		d := 1 + r.Intn(1<<uint(r.Intn(17)))
		g := scanOperand(r, d, trial%2 == 0)
		buf := EncodeTopK(g, 1+r.Intn(d))
		got, want := make([]float32, d), make([]float32, d)
		errGot, errWant := DecodeSparseInto(buf, got), decodeSparseOracle(buf, want)
		if errGot != nil || errWant != nil {
			t.Fatalf("d=%d: encoder payload rejected: streaming %v, oracle %v", d, errGot, errWant)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("d=%d: dst[%d] = %#x, oracle %#x", d, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
		for m := 0; m < 8; m++ {
			bad := slices.Clone(buf)
			if m%2 == 0 {
				bad = bad[:r.Intn(len(bad)+1)]
			} else if len(bad) > 0 {
				bad[r.Intn(len(bad))] ^= 1 << uint(r.Intn(8))
			}
			size := d + r.Intn(3) - 1
			got, want := make([]float32, max(size, 0)), make([]float32, max(size, 0))
			errGot, errWant := DecodeSparseInto(bad, got), decodeSparseOracle(bad, want)
			if errGot == nil && errWant != nil {
				t.Fatalf("d=%d: streaming decoder accepted a payload the oracle rejects (%v)", d, errWant)
			}
			if errGot == nil && !slices.EqualFunc(got, want, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
				t.Fatalf("d=%d: both accept a mutated payload but decode it differently", d)
			}
		}
	}
}
