package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fxrand"
)

// These tests pin the bitwise contract of the multiply-add kernels: every
// reference below rounds the product to float32 before the add (an explicit
// conversion: the spec lets a compiler fuse x*y + z across an assignment), so
// a kernel that later fuses the two (FMA rounds once) fails them on the
// first operand whose low bit differs.

// sameBits reports bitwise equality, except that any NaN matches any NaN:
// which payload survives NaN+NaN depends on operand order inside the
// instruction, and no caller can observe it.
func sameBits(a, b float32) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

var (
	denormal = math.Float32frombits(1)
	specials = []float32{
		0, float32(math.Copysign(0, -1)), denormal, -denormal, math.Float32frombits(0x007fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 1, -1,
	}
)

// operand returns n floats: normals, with a special value at every third
// position when special is set.
func operand(r *fxrand.RNG, n int, special bool) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
		if special && i%3 == 1 {
			v[i] = specials[r.Intn(len(specials))]
		}
	}
	return v
}

// kernelPath is one implementation under Axpy (see kernelPaths): on amd64
// the SSE2 floor and, where the CPU has it, the AVX tier, both checked
// against the Go twin; elsewhere the twin itself.
type kernelPath struct {
	name string
	avx  bool
}

// forEachPath runs f as one subtest per kernel path, with that path selected
// for Axpy and the default restored afterwards.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	for _, p := range kernelPaths() {
		t.Run(p.name, func(t *testing.T) {
			defer p.use()()
			f(t)
		})
	}
}

func TestAxpyMatchesGeneric(t *testing.T) {
	forEachPath(t, testAxpyMatchesGeneric)
}

func testAxpyMatchesGeneric(t *testing.T) {
	r := fxrand.New(1)
	scalars := append([]float32{0.37, -1.5e-3, 3e20}, specials...)
	const pad = 5 // elements of y beyond len(x) that must stay untouched
	for n := 0; n <= 130; n++ {
		for off := 0; off <= 3; off++ {
			for _, special := range []bool{false, true} {
				a := scalars[(n+off)%len(scalars)]
				x := operand(r, off+n, special)[off:]
				y0 := operand(r, off+n+pad, special)[off:]
				got := append([]float32(nil), y0...)
				want := append([]float32(nil), y0...)
				Axpy(a, x, got)
				axpyGeneric(a, x, want)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("n=%d off=%d a=%v: y[%d] = %v (%#x), generic %v (%#x), from y=%v",
							n, off, a, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]), y0[i])
					}
					if i >= n && math.Float32bits(got[i]) != math.Float32bits(y0[i]) {
						t.Fatalf("n=%d off=%d: y[%d] beyond len(x) was written", n, off, i)
					}
				}
			}
		}
	}
}

// TestAxpyGenericRoundsTwice pins the oracle itself: product rounded, then
// the sum.
func TestAxpyGenericRoundsTwice(t *testing.T) {
	r := fxrand.New(2)
	x, y := operand(r, 4096, false), operand(r, 4096, false)
	const a = 0.7310586
	want := make([]float32, len(y))
	fusedDiffers := false
	for i := range y {
		want[i] = y[i] + float32(a*x[i]) // the conversion is what forbids fusing
		if float32(float64(a)*float64(x[i])+float64(y[i])) != want[i] {
			fusedDiffers = true
		}
	}
	if !fusedDiffers {
		t.Fatal("operands never distinguish a fused multiply-add; the test pins nothing")
	}
	axpyGeneric(a, x, y)
	for i := range y {
		if math.Float32bits(y[i]) != math.Float32bits(want[i]) {
			t.Fatalf("axpyGeneric[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestScaleMatchesGeneric(t *testing.T) {
	r := fxrand.New(5)
	scalars := append([]float32{0.37, -1.5e-3, 3e20, 0.5}, specials...)
	const pad = 5 // elements beyond len(x) that must stay untouched
	for n := 0; n <= 130; n++ {
		for off := 0; off <= 3; off++ {
			for _, special := range []bool{false, true} {
				s := scalars[(n+off)%len(scalars)]
				x0 := operand(r, off+n+pad, special)[off:]
				got := append([]float32(nil), x0...)
				want := append([]float32(nil), x0...)
				Scale(s, got[:n])
				scaleGeneric(s, want[:n])
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("n=%d off=%d s=%v: x[%d] = %v (%#x), generic %v (%#x), from x=%v",
							n, off, s, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]), x0[i])
					}
					if i >= n && math.Float32bits(got[i]) != math.Float32bits(x0[i]) {
						t.Fatalf("n=%d off=%d: x[%d] beyond len(x) was written", n, off, i)
					}
				}
			}
		}
	}
}

// TestScaleGenericRoundsOnce pins the oracle: each element is the exact
// product (a float64 holds a product of two float32s exactly) rounded once,
// which is what x[i]*s means.
func TestScaleGenericRoundsOnce(t *testing.T) {
	r := fxrand.New(6)
	x := operand(r, 4096, false)
	const s = 0.7310586
	want := make([]float32, len(x))
	for i, v := range x {
		want[i] = float32(float64(v) * float64(float32(s)))
		if want[i] != v*s {
			t.Fatalf("x[%d]·s: the float32 product %v is not the exact product rounded once %v", i, v*s, want[i])
		}
	}
	scaleGeneric(s, x)
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(want[i]) {
			t.Fatalf("scaleGeneric[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestAxpyShortDestinationPanics(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("axpy wrote past a short y without panicking")
			}
		}()
		Axpy(1, make([]float32, 8), make([]float32, 7))
	})
}

// naiveProduct is the contract written out: C[i,j] sums a(i,p)·b(p,j) over
// ascending p from +0, product rounded before the add, terms with a zero
// left factor skipped.
func naiveProduct(m, k, n int, a func(i, p int) float32, b func(p, j int) float32) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				av := a(i, p)
				if av == 0 {
					continue
				}
				s += float32(av * b(p, j))
			}
			c[i*n+j] = s
		}
	}
	return c
}

// kernelShapes are (m, k, n) of C[m×n] = Σ over k: mlpwide's three layers,
// a conv im2col product, the LSTM gate projections, PowerSGD's rank-4
// factors, and shapes that cross every blocking constant (rowBlock, taChunk,
// tbRows, tbCols) raggedly.
var kernelShapes = [][3]int{
	{16, 256, 768}, {16, 768, 384}, {16, 384, 10},
	{196, 27, 8},
	{16, 16, 128}, {16, 32, 128},
	{768, 384, 4}, {384, 768, 4}, {768, 4, 384},
	{1, 1, 1}, {5, 3, 4}, {7, 130, 19}, {3, 5, taChunk + 76}, {6, tbRows + 9, tbCols + 45},
}

func checkBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), naive loop %v (%#x)", what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestMatmulKernelsMatchNaiveLoopBitwise(t *testing.T) {
	forEachPath(t, testMatmulKernelsMatchNaiveLoopBitwise)
}

func testMatmulKernelsMatchNaiveLoopBitwise(t *testing.T) {
	r := fxrand.New(3)
	for _, s := range kernelShapes {
		m, k, n := s[0], s[1], s[2]
		for _, sparse := range []bool{false, true} {
			lhs := operand(r, m*k, false)
			if sparse { // ReLU-like: about half the left operand is exactly zero
				for i, v := range lhs {
					if v < 0 {
						lhs[i] = 0
					}
				}
			}
			rhs := operand(r, k*n, false)
			what := fmt.Sprintf("%dx%dx%d sparse=%v", m, k, n, sparse)
			dirty := func() *Dense { return New(m, n).RandN(r, 1) }

			a, b := FromSlice(lhs, m, k), FromSlice(rhs, k, n)
			want := naiveProduct(m, k, n, func(i, p int) float32 { return lhs[i*k+p] }, func(p, j int) float32 { return rhs[p*n+j] })
			checkBits(t, "Matmul "+what, Matmul(a, b).data, want)
			c := dirty()
			MatmulInto(c, a, b)
			checkBits(t, "MatmulInto "+what, c.data, want)

			a = FromSlice(lhs, k, m) // the same numbers read as Aᵀ's storage
			want = naiveProduct(m, k, n, func(i, p int) float32 { return lhs[p*m+i] }, func(p, j int) float32 { return rhs[p*n+j] })
			checkBits(t, "MatmulTA "+what, MatmulTA(a, b).data, want)
			c = dirty()
			MatmulTAInto(c, a, b)
			checkBits(t, "MatmulTAInto "+what, c.data, want)
			c = dirty()
			sum := c.Clone()
			for i, v := range want {
				sum.data[i] += v
			}
			MatmulTAAcc(c, a, b)
			checkBits(t, "MatmulTAAcc "+what, c.data, sum.data)

			a, b = FromSlice(lhs, m, k), FromSlice(rhs, n, k)
			want = naiveProduct(m, k, n, func(i, p int) float32 { return lhs[i*k+p] }, func(p, j int) float32 { return rhs[j*k+p] })
			checkBits(t, "MatmulTB "+what, MatmulTB(a, b).data, want)
			c = dirty()
			MatmulTBInto(c, a, b)
			checkBits(t, "MatmulTBInto "+what, c.data, want)
		}
	}
}

// TestMatmulZeroSkipDropsNonFiniteTerms states what the skip changes: a zero
// left factor drops its term even when the right factor is Inf or NaN.
func TestMatmulZeroSkipDropsNonFiniteTerms(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	zeroOne := []float32{0, 1}
	for name, got := range map[string]*Dense{
		"Matmul":   Matmul(FromSlice(zeroOne, 1, 2), FromSlice([]float32{inf, nan, 2, 3}, 2, 2)),
		"MatmulTA": MatmulTA(FromSlice(zeroOne, 2, 1), FromSlice([]float32{inf, nan, 2, 3}, 2, 2)),
		"MatmulTB": MatmulTB(FromSlice(zeroOne, 1, 2), FromSlice([]float32{inf, 2, nan, 3}, 2, 2)),
	} {
		if got.data[0] != 2 || got.data[1] != 3 {
			t.Errorf("%s = %v, want [2 3]", name, got.data)
		}
	}
}

func TestAddAndAddScaledBitwise(t *testing.T) {
	forEachPath(t, testAddAndAddScaledBitwise)
}

func testAddAndAddScaledBitwise(t *testing.T) {
	r := fxrand.New(4)
	for _, n := range []int{0, 1, 3, 17, 64, 1000, 295_000} {
		x, y := operand(r, n, n < 1000), operand(r, n, n < 1000)
		const s = -0.0123
		wantAdd, wantScaled := make([]float32, n), make([]float32, n)
		for i := range x {
			wantAdd[i] = y[i] + x[i]
			wantScaled[i] = y[i] + float32(s*x[i])
		}
		gotAdd := FromSlice(append([]float32(nil), y...), n).Add(FromSlice(x, n)).data
		gotScaled := FromSlice(append([]float32(nil), y...), n).AddScaled(s, FromSlice(x, n)).data
		for i := range x {
			if !sameBits(gotAdd[i], wantAdd[i]) {
				t.Fatalf("n=%d Add[%d]: %v + %v = %v, want %v", n, i, y[i], x[i], gotAdd[i], wantAdd[i])
			}
			if !sameBits(gotScaled[i], wantScaled[i]) {
				t.Fatalf("n=%d AddScaled[%d]: %v + s·%v = %v, want %v", n, i, y[i], x[i], gotScaled[i], wantScaled[i])
			}
		}
	}
}

// TestMomentumStepMatchesGeneric runs MomentumStep (the assembly on amd64)
// against its Go twin over the Axpy grid: every length to 130 at every
// offset, with ±0, subnormals, ±Inf, NaN and overflowing products among the
// operands.
func TestMomentumStepMatchesGeneric(t *testing.T) {
	r := fxrand.New(7)
	scalars := append([]float32{0.9, -0.05, 3e20, 0x1p-120}, specials...)
	const pad = 5 // elements of v and w beyond len(g) that must stay untouched
	for n := 0; n <= 130; n++ {
		for off := 0; off <= 3; off++ {
			for _, special := range []bool{false, true} {
				mu, a := scalars[(n+off)%len(scalars)], scalars[(n+2*off+1)%len(scalars)]
				g := operand(r, off+n, special)[off:]
				v0 := operand(r, off+n+pad, special)[off:]
				w0 := operand(r, off+n+pad, special)[off:]
				gotV, gotW := append([]float32(nil), v0...), append([]float32(nil), w0...)
				wantV, wantW := append([]float32(nil), v0...), append([]float32(nil), w0...)
				MomentumStep(mu, a, g, gotV[:n], gotW[:n])
				momentumGeneric(mu, a, g, wantV[:n], wantW[:n])
				for i := range wantV {
					if !sameBits(gotV[i], wantV[i]) || !sameBits(gotW[i], wantW[i]) {
						t.Fatalf("n=%d off=%d mu=%v a=%v: (v, w)[%d] = (%#x, %#x), generic (%#x, %#x), from g=%v v=%v w=%v",
							n, off, mu, a, i, math.Float32bits(gotV[i]), math.Float32bits(gotW[i]),
							math.Float32bits(wantV[i]), math.Float32bits(wantW[i]), g[min(i, n-1)], v0[i], w0[i])
					}
					if i >= n && (math.Float32bits(gotV[i]) != math.Float32bits(v0[i]) || math.Float32bits(gotW[i]) != math.Float32bits(w0[i])) {
						t.Fatalf("n=%d off=%d: element %d beyond len(g) was written", n, off, i)
					}
				}
			}
		}
	}
}

func TestMomentumStepLengthMismatchPanics(t *testing.T) {
	for _, lens := range [][3]int{{4, 3, 4}, {4, 4, 5}, {3, 4, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MomentumStep with lengths %v did not panic", lens)
				}
			}()
			MomentumStep(0.9, -0.1, make([]float32, lens[0]), make([]float32, lens[1]), make([]float32, lens[2]))
		}()
	}
}

// TestMomentumStepFlushBoundary aims products at 2⁻¹²⁶ from below, a few
// ulps either side, where IEEE rounding and tininess after rounding
// disagree: an exact product in [2⁻¹²⁶ − 2⁻¹⁵⁰, 2⁻¹²⁶ − 2⁻¹⁵¹) rounds to the
// normal 2⁻¹²⁶ in IEEE arithmetic and is flushed by x86's flush-to-zero.
// The assembly decides; the twin must agree, and the sweep must have hit the
// interval.
func TestMomentumStepFlushBoundary(t *testing.T) {
	r := fxrand.New(8)
	const lo, hi = 0x1p-126 - 0x1p-150, 0x1p-126 - 0x1p-151
	hits := 0
	for i := 0; i < 2000; i++ {
		mu := float32(0.5 + r.Float64()/2)
		if i%2 == 1 {
			mu = -mu
		}
		c := math.Float32bits(float32(0x1p-126 / math.Abs(float64(mu))))
		var g, v, w []float32
		for d := uint32(0); d < 9; d++ {
			x := math.Float32frombits(c - 4 + d)
			if p := math.Abs(float64(mu) * float64(x)); p >= lo && p < hi {
				hits++
			}
			g, v, w = append(g, 0), append(v, x), append(w, 1)
		}
		gotV, gotW := append([]float32(nil), v...), append([]float32(nil), w...)
		MomentumStep(mu, mu, g, gotV, gotW)
		momentumGeneric(mu, mu, g, v, w)
		for j := range v {
			if !sameBits(gotV[j], v[j]) || !sameBits(gotW[j], w[j]) {
				t.Fatalf("mu=%v: (v, w)[%d] = (%#x, %#x), generic (%#x, %#x)", mu, j,
					math.Float32bits(gotV[j]), math.Float32bits(gotW[j]), math.Float32bits(v[j]), math.Float32bits(w[j]))
			}
		}
	}
	if hits == 0 {
		t.Fatal("no product landed in [2⁻¹²⁶ − 2⁻¹⁵⁰, 2⁻¹²⁶ − 2⁻¹⁵¹); the test pins nothing")
	}
}

// TestMomentumStepFlushEdges pins the flush on hand-built cases, for the
// assembly and the twin alike: each tiny product or sum reads as a zero of
// its sign, and nothing else changes.
func TestMomentumStepFlushEdges(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	// (1 − 3000·2⁻²⁴)·(2⁻¹²⁶ + 1500·2⁻¹⁴⁹) = 2⁻¹²⁶ − 9·10⁶·2⁻¹⁷⁴.
	edgeMu, edgeV := float32(1-3000*0x1p-24), float32(0x1p-126+1500*0x1p-149)
	if p := float64(edgeMu) * float64(edgeV); p < 0x1p-126-0x1p-150 || p >= 0x1p-126-0x1p-151 || float32(p) != 0x1p-126 {
		t.Fatalf("the boundary case's product %v is not in [2⁻¹²⁶ − 2⁻¹⁵⁰, 2⁻¹²⁶ − 2⁻¹⁵¹) rounding to 2⁻¹²⁶", p)
	}
	for _, c := range []struct {
		name           string
		mu, a, g, v, w float32
		wantV, wantW   float32
	}{
		{"product rounding to 2⁻¹²⁶ is still tiny", edgeMu, 1, 0, edgeV, 1, 0, 1},
		{"negative tiny product", 0.5, 1, negZero, -0x1p-126, 1, negZero, 1},
		{"negative tiny sum", 1, 1, -1.25 * 0x1p-125, 0x1p-125, 1, negZero, 1},
		{"subnormal gradient", 0.9, 1, denormal, 0, 1, 0, 1},
		{"negative subnormal gradient", 0.9, 1, -denormal, 0, 1, negZero, 1},
		{"tiny weight update product", 1, 0x1p-120, 0, 0x1p-10, 3, 0x1p-10, 3},
		{"tiny weight", 1, -1, 0, 1.25 * 0x1p-125, 0x1p-125, 1.25 * 0x1p-125, negZero},
		{"normal results are IEEE", 0.9, -0.5, 0.25, 2, 1, 2.05, float32(1 - float32(0.5*float32(2.05)))},
	} {
		for name, step := range map[string]func(mu, a float32, g, v, w []float32){"MomentumStep": MomentumStep, "generic": momentumGeneric} {
			v, w := []float32{c.v}, []float32{c.w}
			step(c.mu, c.a, []float32{c.g}, v, w)
			if math.Float32bits(v[0]) != math.Float32bits(c.wantV) || math.Float32bits(w[0]) != math.Float32bits(c.wantW) {
				t.Errorf("%s, %s: (v, w) = (%v, %v) %#x %#x, want (%v, %v)", c.name, name, v[0], w[0],
					math.Float32bits(v[0]), math.Float32bits(w[0]), c.wantV, c.wantW)
			}
		}
	}
}

// TestMomentumStepIsThreeIEEECallsWhenNothingIsTiny: where no product or
// sum is tiny, MomentumStep gives the bits of the calls it replaces, in
// their order: Scale(mu, v), Axpy(1, g, v), Axpy(a, v, w). Sparse gradients
// and zero velocities included (zero is not tiny).
func TestMomentumStepIsThreeIEEECallsWhenNothingIsTiny(t *testing.T) {
	r := fxrand.New(9)
	for _, n := range []int{0, 1, 7, 64, 1000, 98_304} {
		g, v, w := operand(r, n, false), operand(r, n, false), operand(r, n, false)
		for i := range g {
			if i%3 == 0 {
				g[i] = 0
			}
			if i%5 == 0 {
				v[i] = 0
			}
		}
		const mu, a = 0.9, -0.05
		gotV, gotW := append([]float32(nil), v...), append([]float32(nil), w...)
		MomentumStep(mu, a, g, gotV, gotW)
		Scale(mu, v)
		Axpy(1, g, v)
		Axpy(a, v, w)
		for i := range v {
			if math.Float32bits(gotV[i]) != math.Float32bits(v[i]) || math.Float32bits(gotW[i]) != math.Float32bits(w[i]) {
				t.Fatalf("n=%d: (v, w)[%d] = (%v, %v), the three calls give (%v, %v)", n, i, gotV[i], gotW[i], v[i], w[i])
			}
			if v[i] != 0 && math.Abs(float64(v[i])) < 0x1p-100 {
				t.Fatalf("n=%d: v[%d] = %v is near the tiny range; the operands do not keep the test's premise", n, i, v[i])
			}
		}
	}
}

func TestResizeAndWrapReuseStorage(t *testing.T) {
	var buf Dense
	buf.Resize(4, 6).Fill(3)
	first := &buf.data[0]
	if buf.Resize(2, 12); buf.Dim(1) != 12 || buf.data[23] != 3 {
		t.Fatal("a same-size Resize must reshape in place and keep the contents")
	}
	if buf.Resize(3, 5); &buf.data[0] != first || buf.Size() != 15 || buf.Rank() != 2 {
		t.Fatal("a smaller Resize must keep the storage")
	}
	if buf.Resize(4, 6); &buf.data[0] != first {
		t.Fatal("growing back within capacity must keep the storage")
	}
	if buf.Resize(5, 6); buf.Size() != 30 {
		t.Fatal("Resize did not grow")
	}
	src := []float32{1, 2, 3, 4, 5, 6}
	var view Dense
	view.Wrap(src, 2, 3)
	if view.At(1, 0) != 4 || &view.data[0] != &src[0] {
		t.Fatal("Wrap must use the slice directly")
	}
	if n := testing.AllocsPerRun(10, func() { buf.Resize(2, 3); view.Wrap(src, 3, 2) }); n != 0 {
		t.Fatalf("steady-state Resize+Wrap allocate %v times, want 0", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Wrap with a mismatched shape did not panic")
		}
	}()
	view.Wrap(src, 4, 2)
}

// BenchmarkMatmul times the three product kernels at the shapes of mlpwide
// (batch 16, 256→768→384→10), the model train_tcp_topk trains, on every
// kernel path (sse and avx on an AVX machine), and reports nanoseconds per
// multiply-add. Operands are dense normals, so the zero-skip never fires:
// ReLU-sparse activations run faster than these rows.
func BenchmarkMatmul(b *testing.B) {
	const batch = 16
	for _, path := range kernelPaths() {
		r := fxrand.New(1)
		for _, l := range [][2]int{{256, 768}, {768, 384}, {384, 10}} {
			in, out := l[0], l[1]
			x := New(batch, in).RandN(r, 1)
			w := New(in, out).RandN(r, 1)
			dy := New(batch, out).RandN(r, 1)
			y, dw, dx := New(batch, out), New(in, out), New(batch, in)
			for _, k := range []struct {
				name string
				run  func()
			}{
				{"forward", func() { MatmulInto(y, x, w) }},
				{"dW", func() { MatmulTAInto(dw, x, dy) }},
				{"dX", func() { MatmulTBInto(dx, dy, w) }},
			} {
				b.Run(fmt.Sprintf("%s/%s/%dx%dx%d", path.name, k.name, batch, in, out), func(b *testing.B) {
					defer path.use()()
					for i := 0; i < b.N; i++ {
						k.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch*in*out), "ns/mac")
				})
			}
		}
	}
}

// BenchmarkMomentum times one momentum SGD update of each of mlpwide's six
// parameter tensors as MomentumStep ("step"), as its Go twin ("generic",
// the non-amd64 build, here on amd64 to show what the assembly saves) and as
// the three IEEE calls it replaces ("ieee": Scale, Axpy, Axpy), from a
// velocity with no subnormal
// entry and from one with 9 % subnormal entries whose coordinates get no
// gradient (the share a long top-k 1 % + EF training reaches in IEEE
// arithmetic). The update repeats on its own output, as in training: the
// IEEE calls keep those entries subnormal (0.9·2⁻¹⁴⁹ rounds back to
// 2⁻¹⁴⁹), MomentumStep flushes them on its first call. Reports nanoseconds
// per parameter.
func BenchmarkMomentum(b *testing.B) {
	const mu, a = 0.9, -0.05
	for _, k := range []struct {
		name string
		run  func(g, v, w []float32)
	}{
		{"step", func(g, v, w []float32) { MomentumStep(mu, a, g, v, w) }},
		{"generic", func(g, v, w []float32) { momentumGeneric(mu, a, g, v, w) }},
		{"ieee", func(g, v, w []float32) { Scale(mu, v); Axpy(1, g, v); Axpy(a, v, w) }},
	} {
		for _, pct := range []int{0, 9} {
			r := fxrand.New(1)
			for _, shape := range []struct {
				name string
				n    int
			}{{"256x768", 256 * 768}, {"768", 768}, {"768x384", 768 * 384}, {"384", 384}, {"384x10", 3840}, {"10", 10}} {
				n := shape.n
				g, v, w := operand(r, n, false), operand(r, n, false), operand(r, n, false)
				for i := range g {
					if r.Intn(100) < pct { // a coordinate out of the top-k set
						g[i], v[i] = 0, math.Float32frombits(uint32(1+r.Intn(1<<20)))
					}
				}
				b.Run(fmt.Sprintf("%s/subnormal=%d%%/%s", k.name, pct, shape.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						k.run(g, v, w)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/param")
				})
			}
		}
	}
}
