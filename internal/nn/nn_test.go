package nn

import (
	"math"
	"testing"

	"repro/internal/fxrand"
	"repro/internal/tensor"
)

const (
	gcSamples = 12
	gcEps     = 1e-2
	gcTol     = 0.05
)

// runGradCheck wires a layer + MSE loss against a random target and verifies
// analytic gradients against finite differences.
func runGradCheck(t *testing.T, layer Layer, x *tensor.Dense) {
	t.Helper()
	r := fxrand.New(99)
	var target *tensor.Dense

	forward := func() float64 {
		y := layer.Forward(x, true)
		if target == nil {
			target = tensor.New(y.Shape()...).RandN(r, 1)
		}
		loss, _ := MSE(y, target)
		return loss
	}
	// Populate analytic gradients.
	ZeroGrads(layer.Params())
	y := layer.Forward(x, true)
	if target == nil {
		target = tensor.New(y.Shape()...).RandN(r, 1)
	}
	_, dl := MSE(y, target)
	dx := layer.Backward(dl)

	rel, worst := GradCheck(layer.Params(), x, dx, forward, gcSamples, gcEps)
	if rel > gcTol {
		t.Fatalf("%s gradient check failed: rel err %v at %s", layer.Name(), rel, worst)
	}
}

func TestDenseForwardKnown(t *testing.T) {
	r := fxrand.New(1)
	d := NewDense("fc", 2, 2, r)
	d.w.Value.CopyFrom(tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2))
	d.b.Value.CopyFrom(tensor.FromSlice([]float32{10, 20}, 2))
	y := d.Forward(tensor.FromSlice([]float32{1, 1}, 1, 2), false)
	if y.At(0, 0) != 14 || y.At(0, 1) != 26 {
		t.Fatalf("Dense forward got %v", y.Data())
	}
}

func TestDenseGradients(t *testing.T) {
	r := fxrand.New(2)
	d := NewDense("fc", 5, 4, r)
	x := tensor.New(3, 5).RandN(r, 1)
	runGradCheck(t, d, x)
}

func TestDenseRank3Input(t *testing.T) {
	r := fxrand.New(3)
	d := NewDense("fc", 4, 2, r)
	x := tensor.New(2, 3, 4).RandN(r, 1)
	y := d.Forward(x, true)
	want := []int{2, 3, 2}
	for i, dim := range y.Shape() {
		if dim != want[i] {
			t.Fatalf("rank-3 Dense output shape %v", y.Shape())
		}
	}
	dx := d.Backward(tensor.New(y.Shape()...).RandN(r, 1))
	if !dx.SameShape(x) {
		t.Fatalf("rank-3 Dense dx shape %v", dx.Shape())
	}
}

func TestReLUForwardBackward(t *testing.T) {
	l := NewReLU("relu")
	x := tensor.FromSlice([]float32{-1, 0, 2}, 3)
	y := l.Forward(x, true)
	if y.Data()[0] != 0 || y.Data()[1] != 0 || y.Data()[2] != 2 {
		t.Fatalf("ReLU forward %v", y.Data())
	}
	dx := l.Backward(tensor.FromSlice([]float32{5, 5, 5}, 3))
	if dx.Data()[0] != 0 || dx.Data()[1] != 0 || dx.Data()[2] != 5 {
		t.Fatalf("ReLU backward %v", dx.Data())
	}
}

func TestConvForwardKnown(t *testing.T) {
	r := fxrand.New(8)
	c := NewConv2D("conv", 1, 1, 2, 1, 0, r)
	// Kernel = all ones, bias 0: output = sum of each 2x2 patch.
	c.w.Value.Fill(1)
	c.b.Value.Zero()
	x := tensor.FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	y := c.Forward(x, false)
	want := []float32{12, 16, 24, 28}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("conv forward got %v want %v", y.Data(), want)
		}
	}
}

func TestConvPaddingShape(t *testing.T) {
	r := fxrand.New(9)
	c := NewConv2D("conv", 2, 3, 3, 1, 1, r)
	x := tensor.New(2, 2, 8, 8).RandN(r, 1)
	y := c.Forward(x, false)
	want := []int{2, 3, 8, 8}
	for i, d := range y.Shape() {
		if d != want[i] {
			t.Fatalf("same-padding conv shape %v", y.Shape())
		}
	}
}

func TestConvGradients(t *testing.T) {
	r := fxrand.New(10)
	c := NewConv2D("conv", 2, 3, 3, 1, 1, r)
	x := tensor.New(2, 2, 5, 5).RandN(r, 1)
	runGradCheck(t, c, x)
}

func TestConvStride2Gradients(t *testing.T) {
	r := fxrand.New(11)
	c := NewConv2D("conv", 1, 2, 3, 2, 1, r)
	x := tensor.New(1, 1, 6, 6).RandN(r, 1)
	runGradCheck(t, c, x)
}

func TestMaxPoolForward(t *testing.T) {
	m := NewMaxPool2D("pool", 2)
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 1,
	}, 1, 1, 4, 4)
	y := m.Forward(x, true)
	want := []float32{4, 8, 9, 4}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("maxpool forward %v want %v", y.Data(), want)
		}
	}
	dx := m.Backward(tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2))
	// Gradient lands exactly on argmax positions.
	var nz int
	for _, v := range dx.Data() {
		if v != 0 {
			nz++
		}
	}
	if nz != 4 {
		t.Fatalf("maxpool backward has %d non-zeros, want 4", nz)
	}
}

func TestMaxPoolGradients(t *testing.T) {
	r := fxrand.New(12)
	m := NewMaxPool2D("pool", 2)
	x := tensor.New(2, 2, 4, 4).RandN(r, 1)
	runGradCheck(t, m, x)
}

func TestUpsampleForwardBackward(t *testing.T) {
	u := NewUpsample2D("up", 2)
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	y := u.Forward(x, true)
	if y.Dim(2) != 4 || y.Dim(3) != 4 {
		t.Fatalf("upsample shape %v", y.Shape())
	}
	if y.At(0, 0, 0, 0) != 1 || y.At(0, 0, 1, 1) != 1 || y.At(0, 0, 2, 3) != 4 {
		t.Fatalf("upsample values wrong: %v", y.Data())
	}
	d := tensor.New(1, 1, 4, 4)
	d.Fill(1)
	dx := u.Backward(d)
	for _, v := range dx.Data() {
		if v != 4 {
			t.Fatalf("upsample backward %v want all 4s", dx.Data())
		}
	}
}

func TestUpsampleGradients(t *testing.T) {
	r := fxrand.New(13)
	u := NewUpsample2D("up", 2)
	x := tensor.New(1, 2, 3, 3).RandN(r, 1)
	runGradCheck(t, u, x)
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("flat")
	r := fxrand.New(14)
	x := tensor.New(2, 3, 4).RandN(r, 1)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 12 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	dx := f.Backward(y.Clone())
	if !dx.SameShape(x) {
		t.Fatalf("flatten backward shape %v", dx.Shape())
	}
}

func TestLSTMShapes(t *testing.T) {
	r := fxrand.New(15)
	l := NewLSTM("lstm", 3, 5, r)
	x := tensor.New(2, 4, 3).RandN(r, 1)
	y := l.Forward(x, true)
	want := []int{2, 4, 5}
	for i, d := range y.Shape() {
		if d != want[i] {
			t.Fatalf("lstm output shape %v", y.Shape())
		}
	}
	dx := l.Backward(tensor.New(2, 4, 5).RandN(r, 1))
	if !dx.SameShape(x) {
		t.Fatalf("lstm dx shape %v", dx.Shape())
	}
}

func TestLSTMGradients(t *testing.T) {
	r := fxrand.New(16)
	l := NewLSTM("lstm", 3, 4, r)
	x := tensor.New(2, 3, 3).RandN(r, 1)
	runGradCheck(t, l, x)
}

func TestLSTMStateless(t *testing.T) {
	// Two identical forward passes must produce identical output (fresh
	// zero state each call).
	r := fxrand.New(17)
	l := NewLSTM("lstm", 2, 3, r)
	x := tensor.New(1, 5, 2).RandN(r, 1)
	y1 := l.Forward(x, false)
	y2 := l.Forward(x, false)
	for i := range y1.Data() {
		if y1.Data()[i] != y2.Data()[i] {
			t.Fatal("LSTM carried state across Forward calls")
		}
	}
}

func TestEmbeddingForwardBackward(t *testing.T) {
	r := fxrand.New(18)
	e := NewEmbedding("emb", 10, 4, r)
	ids := [][]int{{1, 2}, {2, 3}}
	y := e.ForwardIDs(ids, true)
	if y.Dim(0) != 2 || y.Dim(1) != 2 || y.Dim(2) != 4 {
		t.Fatalf("embedding shape %v", y.Shape())
	}
	// Row 2 appears twice; its gradient must be the sum.
	d := tensor.New(2, 2, 4)
	d.Fill(1)
	e.BackwardIDs(d)
	g := e.w.Grad
	if g.At(2, 0) != 2 {
		t.Fatalf("shared-id gradient %v want 2", g.At(2, 0))
	}
	if g.At(1, 0) != 1 || g.At(3, 0) != 1 {
		t.Fatal("embedding gradient wrong for single-use ids")
	}
	if g.At(0, 0) != 0 {
		t.Fatal("untouched embedding row has gradient")
	}
}

func TestEmbeddingOutOfVocabPanics(t *testing.T) {
	r := fxrand.New(19)
	e := NewEmbedding("emb", 5, 2, r)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.ForwardIDs([][]int{{5}}, false)
}

func TestSequentialComposition(t *testing.T) {
	r := fxrand.New(20)
	m := NewSequential("mlp",
		NewDense("fc1", 4, 8, r),
		NewReLU("relu1"),
		NewDense("fc2", 8, 2, r),
	)
	if len(m.Params()) != 4 {
		t.Fatalf("Sequential params = %d, want 4", len(m.Params()))
	}
	if NumParams(m.Params()) != 4*8+8+8*2+2 {
		t.Fatalf("NumParams = %d", NumParams(m.Params()))
	}
	x := tensor.New(3, 4).RandN(r, 1)
	runGradCheck(t, m, x)
}

// TestDiscardInputGradKeepsParamGradBits: with the opt-in, Backward ends at
// the first parametrised layer and returns nil; every parameter gradient of
// the classifiers' two layer stacks carries the same bits as without it, on
// a second step too (reused buffers), and without it dX is still produced.
func TestDiscardInputGradKeepsParamGradBits(t *testing.T) {
	stacks := map[string]struct {
		build func() *Sequential
		x     *tensor.Dense
	}{
		"mlp": {func() *Sequential {
			r := fxrand.New(5)
			return NewSequential("mlp", NewFlatten("flatten"),
				NewDense("fc0", 64, 48, r), NewReLU("relu0"), NewDense("out", 48, 5, r))
		}, tensor.New(6, 1, 8, 8)},
		"cnn": {func() *Sequential {
			r := fxrand.New(6)
			return NewSequential("cnn",
				NewConv2D("conv0", 2, 4, 3, 1, 1, r), NewReLU("crelu0"), NewMaxPool2D("pool0", 2),
				NewFlatten("flatten"), NewDense("out", 4*4*4, 5, r))
		}, tensor.New(6, 2, 8, 8)},
	}
	labels := []int{0, 1, 2, 3, 4, 0}
	for name, st := range stacks {
		keep, discard := st.build(), st.build().DiscardInputGrad()
		r := fxrand.New(7)
		for step := 0; step < 2; step++ {
			st.x.RandN(r, 1)
			var dx [2]*tensor.Dense
			for i, m := range []*Sequential{keep, discard} {
				ZeroGrads(m.Params())
				_, dl := SoftmaxCrossEntropy(m.Forward(st.x, true), labels)
				dx[i] = m.Backward(dl)
			}
			if dx[0] == nil || !dx[0].SameShape(st.x) {
				t.Fatalf("%s: Backward without the opt-in returned dX %v, want the input's shape", name, dx[0])
			}
			if dx[1] != nil {
				t.Fatalf("%s: Backward after DiscardInputGrad returned %v, want nil", name, dx[1])
			}
			for i, p := range keep.Params() {
				q := discard.Params()[i]
				for j, v := range p.Grad.Data() {
					if math.Float32bits(v) != math.Float32bits(q.Grad.Data()[j]) {
						t.Fatalf("%s step %d: %s grad[%d] = %v with dX, %v without", name, step, p.Name, j, v, q.Grad.Data()[j])
					}
				}
			}
		}
	}
}

// TestDiscardInputGradFallsBackToBackward: a first parametrised layer that
// cannot skip its input gradient (LSTM) just runs its ordinary Backward.
func TestDiscardInputGradFallsBackToBackward(t *testing.T) {
	r := fxrand.New(8)
	m := NewSequential("rnn", NewLSTM("lstm", 3, 4, r)).DiscardInputGrad()
	y := m.Forward(tensor.New(2, 5, 3).RandN(r, 1), true)
	if m.Backward(y) != nil {
		t.Fatal("Backward after DiscardInputGrad must return nil")
	}
	if m.Params()[0].Grad.Norm2() == 0 {
		t.Fatal("the LSTM's parameter gradients were not accumulated")
	}
}

func TestZeroGrads(t *testing.T) {
	r := fxrand.New(21)
	d := NewDense("fc", 2, 2, r)
	d.w.Grad.Fill(5)
	ZeroGrads(d.Params())
	if d.w.Grad.Sum() != 0 {
		t.Fatal("ZeroGrads did not clear")
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln 4.
	logits := tensor.New(1, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("uniform CE loss %v want %v", loss, math.Log(4))
	}
	// Gradient sums to zero.
	if math.Abs(grad.Sum()) > 1e-6 {
		t.Fatalf("CE gradient sum %v", grad.Sum())
	}
	if grad.At(0, 2) >= 0 {
		t.Fatal("gradient at true label must be negative")
	}
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	r := fxrand.New(22)
	logits := tensor.New(3, 5).RandN(r, 1)
	labels := []int{1, 0, 4}
	_, analytic := SoftmaxCrossEntropy(logits, labels)
	const eps = 1e-3
	for i := 0; i < logits.Size(); i += 2 {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data()[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data()[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(analytic.Data()[i])) > 1e-3 {
			t.Fatalf("CE gradient mismatch at %d: numeric %v analytic %v", i, numeric, analytic.Data()[i])
		}
	}
}

func TestBCEWithLogitsGradient(t *testing.T) {
	r := fxrand.New(23)
	logits := tensor.New(10).RandN(r, 2)
	targets := tensor.New(10).RandU(r, 0, 1)
	_, analytic := BCEWithLogits(logits, targets)
	const eps = 1e-3
	for i := 0; i < 10; i++ {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		lp, _ := BCEWithLogits(logits, targets)
		logits.Data()[i] = orig - eps
		lm, _ := BCEWithLogits(logits, targets)
		logits.Data()[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(analytic.Data()[i])) > 1e-3 {
			t.Fatalf("BCE gradient mismatch at %d", i)
		}
	}
}

func TestBCEStableAtExtremes(t *testing.T) {
	logits := tensor.FromSlice([]float32{50, -50}, 2)
	targets := tensor.FromSlice([]float32{1, 0}, 2)
	loss, _ := BCEWithLogits(logits, targets)
	if math.IsNaN(loss) || math.IsInf(loss, 0) || loss > 1e-6 {
		t.Fatalf("BCE unstable at extremes: %v", loss)
	}
}

func TestMSEKnown(t *testing.T) {
	p := tensor.FromSlice([]float32{1, 2}, 2)
	q := tensor.FromSlice([]float32{0, 0}, 2)
	loss, grad := MSE(p, q)
	if loss != 2.5 {
		t.Fatalf("MSE %v want 2.5", loss)
	}
	if grad.Data()[0] != 1 || grad.Data()[1] != 2 {
		t.Fatalf("MSE grad %v", grad.Data())
	}
}

func TestArgmaxRows(t *testing.T) {
	logits := tensor.FromSlice([]float32{1, 3, 2, 9, 0, 1}, 2, 3)
	got := ArgmaxRows(logits, 2)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows %v", got)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// End-to-end sanity: a small MLP fits random-but-separable data with SGD.
	r := fxrand.New(42)
	m := NewSequential("mlp",
		NewDense("fc1", 2, 16, r),
		NewReLU("r1"),
		NewDense("fc2", 16, 2, r),
	)
	// Two Gaussian blobs.
	const n = 64
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		x.Set(r.NormFloat32()*0.5+float32(2*c-1), i, 0)
		x.Set(r.NormFloat32()*0.5+float32(2*c-1), i, 1)
	}
	var first, last float64
	for step := 0; step < 200; step++ {
		ZeroGrads(m.Params())
		y := m.Forward(x, true)
		loss, dl := SoftmaxCrossEntropy(y, labels)
		m.Backward(dl)
		for _, p := range m.Params() {
			p.Value.AddScaled(-0.5, p.Grad)
		}
		if step == 0 {
			first = loss
		}
		last = loss
	}
	if last > first/10 {
		t.Fatalf("training did not reduce loss: %v -> %v", first, last)
	}
}

func BenchmarkDenseForward(b *testing.B) {
	r := fxrand.New(1)
	d := NewDense("fc", 256, 256, r)
	x := tensor.New(32, 256).RandN(r, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Forward(x, true)
	}
}

func BenchmarkConvForward(b *testing.B) {
	r := fxrand.New(1)
	c := NewConv2D("conv", 8, 16, 3, 1, 1, r)
	x := tensor.New(8, 8, 16, 16).RandN(r, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(x, true)
	}
}

func BenchmarkLSTMForwardBackward(b *testing.B) {
	r := fxrand.New(1)
	l := NewLSTM("lstm", 32, 64, r)
	x := tensor.New(8, 16, 32).RandN(r, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := l.Forward(x, true)
		l.Backward(y)
	}
}
