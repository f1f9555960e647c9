package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fxrand"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 || x.Rank() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("bad shape metadata: %v", x)
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New not zero filled")
		}
	}
}

func TestScalarTensor(t *testing.T) {
	s := New()
	if s.Size() != 1 || s.Rank() != 0 {
		t.Fatalf("scalar tensor wrong: size=%d rank=%d", s.Size(), s.Rank())
	}
	s.Set(3.5)
	if s.At() != 3.5 {
		t.Fatal("scalar At/Set broken")
	}
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRowMajor(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.At(0, 0) != 1 || x.At(0, 2) != 3 || x.At(1, 0) != 4 || x.At(1, 2) != 6 {
		t.Fatalf("row-major indexing broken: %v", x.Data())
	}
	x.Set(9, 1, 1)
	if x.Data()[4] != 9 {
		t.Fatal("Set wrote wrong offset")
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	c := x.Clone()
	c.Data()[0] = 99
	if x.Data()[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Data()[0] = 7
	if x.At(0, 0) != 7 {
		t.Fatal("Reshape does not share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape did not panic")
		}
	}()
	x.Reshape(3)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	a.Add(b)
	want := []float32{5, 7, 9}
	for i, v := range a.Data() {
		if v != want[i] {
			t.Fatalf("Add: got %v", a.Data())
		}
	}
	a.Sub(b)
	if a.Data()[0] != 1 || a.Data()[2] != 3 {
		t.Fatalf("Sub: got %v", a.Data())
	}
	a.Mul(b)
	if a.Data()[1] != 10 {
		t.Fatalf("Mul: got %v", a.Data())
	}
	a.Div(b)
	if a.Data()[1] != 2 {
		t.Fatalf("Div: got %v", a.Data())
	}
	a.Scale(2)
	if a.Data()[0] != 2 {
		t.Fatalf("Scale: got %v", a.Data())
	}
}

func TestAddScaled(t *testing.T) {
	a := FromSlice([]float32{1, 1}, 2)
	b := FromSlice([]float32{2, 4}, 2)
	a.AddScaled(0.5, b)
	if a.Data()[0] != 2 || a.Data()[1] != 3 {
		t.Fatalf("AddScaled: got %v", a.Data())
	}
}

func TestApply(t *testing.T) {
	a := FromSlice([]float32{-1, 2}, 2)
	a.Apply(func(x float32) float32 { return x * x })
	if a.Data()[0] != 1 || a.Data()[1] != 4 {
		t.Fatalf("Apply: got %v", a.Data())
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{-3, 1, 2}, 3)
	if a.Sum() != 0 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.Mean() != 0 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if a.Max() != 2 || a.Min() != -3 {
		t.Fatalf("Max/Min = %v/%v", a.Max(), a.Min())
	}
	if got := a.Dot(a); got != 14 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestNorms(t *testing.T) {
	a := FromSlice([]float32{3, -4}, 2)
	if a.Norm2() != 5 {
		t.Fatalf("Norm2 = %v", a.Norm2())
	}
	if Norm2F32(a.Data()) != 5 || Norm1F32(a.Data()) != 7 || NormInfF32(a.Data()) != 4 {
		t.Fatal("flat norm helpers disagree")
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).Add(New(3))
}

func TestMatmulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := Matmul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("Matmul got %v want %v", c.Data(), want)
		}
	}
}

func TestMatmulIdentity(t *testing.T) {
	r := fxrand.New(1)
	a := New(4, 4).RandN(r, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	c := Matmul(a, id)
	for i, v := range c.Data() {
		if v != a.Data()[i] {
			t.Fatal("A·I != A")
		}
	}
}

func TestMatmulInto(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c := New(2, 2)
	c.Fill(99) // ensure it is zeroed internally
	MatmulInto(c, a, b)
	want := Matmul(a, b)
	for i, v := range c.Data() {
		if v != want.Data()[i] {
			t.Fatalf("MatmulInto %v want %v", c.Data(), want.Data())
		}
	}
}

// matmulRef is a naive reference implementation for property tests.
func matmulRef(a, b *Dense) *Dense {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			c.Set(float32(s), i, j)
		}
	}
	return c
}

func TestMatmulMatchesReference(t *testing.T) {
	f := func(seed uint64, mr, kr, nr uint8) bool {
		m, k, n := int(mr%8)+1, int(kr%8)+1, int(nr%8)+1
		r := fxrand.New(seed)
		a := New(m, k).RandN(r, 1)
		b := New(k, n).RandN(r, 1)
		got := Matmul(a, b)
		want := matmulRef(a, b)
		for i := range got.Data() {
			if math.Abs(float64(got.Data()[i]-want.Data()[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMatmulTAMatchesTranspose(t *testing.T) {
	r := fxrand.New(2)
	a := New(5, 3).RandN(r, 1)
	b := New(5, 4).RandN(r, 1)
	got := MatmulTA(a, b)
	want := Matmul(Transpose(a), b)
	for i := range got.Data() {
		if math.Abs(float64(got.Data()[i]-want.Data()[i])) > 1e-4 {
			t.Fatal("MatmulTA != Aᵀ·B")
		}
	}
}

func TestMatmulTAIntoMatchesMatmulTABitwise(t *testing.T) {
	r := fxrand.New(4)
	c := New(7, 6).RandN(r, 1) // reused, dirty destination
	for step := 0; step < 3; step++ {
		a := New(9, 7).RandN(r, 1)
		b := New(9, 6).RandN(r, 1)
		a.Data()[step] = 0 // the kernel skips zero lhs entries
		MatmulTAInto(c, a, b)
		want := MatmulTA(a, b)
		for i, v := range c.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("step %d: MatmulTAInto[%d] = %v, MatmulTA = %v", step, i, v, want.Data()[i])
			}
		}
	}
}

func TestMatmulTBMatchesTranspose(t *testing.T) {
	r := fxrand.New(3)
	a := New(5, 3).RandN(r, 1)
	b := New(4, 3).RandN(r, 1)
	got := MatmulTB(a, b)
	want := Matmul(a, Transpose(b))
	for i := range got.Data() {
		if math.Abs(float64(got.Data()[i]-want.Data()[i])) > 1e-4 {
			t.Fatal("MatmulTB != A·Bᵀ")
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := fxrand.New(4)
	a := New(3, 7).RandN(r, 1)
	b := Transpose(Transpose(a))
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("transpose twice != identity")
		}
	}
}

func TestMatmulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Matmul(New(2, 3), New(2, 3))
}

func TestRandNMoments(t *testing.T) {
	r := fxrand.New(5)
	x := New(100000).RandN(r, 2)
	mean := x.Mean()
	var varSum float64
	for _, v := range x.Data() {
		varSum += (float64(v) - mean) * (float64(v) - mean)
	}
	variance := varSum / float64(x.Size())
	if math.Abs(mean) > 0.05 {
		t.Fatalf("RandN mean %v", mean)
	}
	if math.Abs(variance-4) > 0.2 {
		t.Fatalf("RandN variance %v want ~4", variance)
	}
}

func TestRandURange(t *testing.T) {
	r := fxrand.New(6)
	x := New(10000).RandU(r, -2, 3)
	if x.Min() < -2 || x.Max() >= 3 {
		t.Fatalf("RandU out of range: [%v,%v]", x.Min(), x.Max())
	}
}

func TestGlorotBounds(t *testing.T) {
	r := fxrand.New(7)
	x := New(1000).GlorotInit(r, 50, 50)
	limit := math.Sqrt(6.0 / 100.0)
	if got := NormInfF32(x.Data()); got > limit {
		t.Fatalf("Glorot exceeds limit %v: %v", limit, got)
	}
}

func BenchmarkMatmul128(b *testing.B) {
	r := fxrand.New(1)
	x := New(128, 128).RandN(r, 1)
	y := New(128, 128).RandN(r, 1)
	c := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatmulInto(c, x, y)
	}
}

func BenchmarkAddScaled(b *testing.B) {
	r := fxrand.New(1)
	x := New(1<<16).RandN(r, 1)
	y := New(1<<16).RandN(r, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.AddScaled(0.001, y)
	}
}
