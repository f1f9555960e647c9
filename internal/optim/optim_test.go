package optim

import (
	"math"
	"testing"

	"repro/internal/fxrand"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// quadratic is a convex test problem: f(x) = ½‖x − target‖², ∇f = x − target.
type quadratic struct {
	p      *nn.Param
	target *tensor.Dense
}

func newQuadratic(seed uint64, dim int) *quadratic {
	r := fxrand.New(seed)
	p := nn.NewParam("x", tensor.New(dim).RandN(r, 1))
	return &quadratic{p: p, target: tensor.New(dim).RandN(r, 1)}
}

func (q *quadratic) grad() *tensor.Dense {
	g := q.p.Value.Clone()
	g.Sub(q.target)
	return g
}

func (q *quadratic) dist() float64 {
	d := q.p.Value.Clone()
	d.Sub(q.target)
	return d.Norm2()
}

func converges(t *testing.T, opt Optimizer, seed uint64, steps int) {
	t.Helper()
	q := newQuadratic(seed, 10)
	start := q.dist()
	for i := 0; i < steps; i++ {
		opt.Step([]*nn.Param{q.p}, []*tensor.Dense{q.grad()})
	}
	if q.dist() > start*0.01 {
		t.Fatalf("%s did not converge: %v -> %v", opt.Name(), start, q.dist())
	}
}

func TestSGDConverges(t *testing.T)      { converges(t, NewSGD(0.1), 1, 200) }
func TestMomentumConverges(t *testing.T) { converges(t, NewMomentumSGD(0.05, 0.9), 2, 200) }
func TestAdamConverges(t *testing.T)     { converges(t, NewAdam(0.1), 4, 400) }
func TestRMSPropConverges(t *testing.T)  { converges(t, NewRMSProp(0.05), 5, 500) }

func TestSGDKnownStep(t *testing.T) {
	p := nn.NewParam("x", tensor.FromSlice([]float32{1, 2}, 2))
	g := tensor.FromSlice([]float32{10, 20}, 2)
	NewSGD(0.1).Step([]*nn.Param{p}, []*tensor.Dense{g})
	if p.Value.Data()[0] != 0 || math.Abs(float64(p.Value.Data()[1]))-0 > 1e-6 {
		t.Fatalf("SGD step got %v, want [0 0]", p.Value.Data())
	}
}

func TestMomentumAccumulates(t *testing.T) {
	p := nn.NewParam("x", tensor.FromSlice([]float32{0}, 1))
	g := tensor.FromSlice([]float32{1}, 1)
	opt := NewMomentumSGD(1, 0.5)
	opt.Step([]*nn.Param{p}, []*tensor.Dense{g.Clone()})
	// v=1, x=-1
	opt.Step([]*nn.Param{p}, []*tensor.Dense{g.Clone()})
	// v=1.5, x=-2.5
	if math.Abs(float64(p.Value.Data()[0])+2.5) > 1e-6 {
		t.Fatalf("momentum state wrong: x=%v want -2.5", p.Value.Data()[0])
	}
}

func TestAdamFirstStepMagnitude(t *testing.T) {
	// With bias correction, Adam's first step is ~lr regardless of gradient
	// scale.
	p := nn.NewParam("x", tensor.FromSlice([]float32{0}, 1))
	g := tensor.FromSlice([]float32{1e-3}, 1)
	NewAdam(0.1).Step([]*nn.Param{p}, []*tensor.Dense{g})
	if math.Abs(float64(p.Value.Data()[0])+0.1) > 1e-3 {
		t.Fatalf("Adam first step %v, want ~ -0.1", p.Value.Data()[0])
	}
}

func TestOptimizerNames(t *testing.T) {
	names := map[string]Optimizer{
		"sgd":          NewSGD(0.1),
		"momentum-sgd": NewMomentumSGD(0.1, 0.9),
		"adam":         NewAdam(0.1),
		"rmsprop":      NewRMSProp(0.1),
	}
	for want, opt := range names {
		if opt.Name() != want {
			t.Fatalf("Name() = %q want %q", opt.Name(), want)
		}
	}
}

func TestStatefulOptimizersTrackParamsByIdentity(t *testing.T) {
	// Two parameters with identical shapes must keep independent state.
	p1 := nn.NewParam("a", tensor.FromSlice([]float32{0}, 1))
	p2 := nn.NewParam("b", tensor.FromSlice([]float32{0}, 1))
	opt := NewAdam(0.1)
	g1 := tensor.FromSlice([]float32{1}, 1)
	g2 := tensor.FromSlice([]float32{-1}, 1)
	for i := 0; i < 10; i++ {
		opt.Step([]*nn.Param{p1, p2}, []*tensor.Dense{g1.Clone(), g2.Clone()})
	}
	if p1.Value.Data()[0] >= 0 || p2.Value.Data()[0] <= 0 {
		t.Fatalf("independent state violated: %v %v", p1.Value.Data()[0], p2.Value.Data()[0])
	}
}

// ieeeMomentum is momentum SGD as the three IEEE kernel calls SGD made
// before tensor.MomentumStep: v.Scale(μ).Add(g), then w.AddScaled(−η, v).
type ieeeMomentum struct {
	lr, mu   float32
	velocity map[*nn.Param]*tensor.Dense
}

func (o *ieeeMomentum) Step(params []*nn.Param, grads []*tensor.Dense) {
	for i, p := range params {
		v, ok := o.velocity[p]
		if !ok {
			v = tensor.New(p.Value.Shape()...)
			o.velocity[p] = v
		}
		v.Scale(o.mu).Add(grads[i])
		p.Value.AddScaled(-o.lr, v)
	}
}

func subnormal(x float32) bool { return x != 0 && math.Abs(float64(x)) < 0x1p-126 }

// TestMomentumSparseGradientsLeaveNoSubnormalVelocity replays what top-k +
// EF does to momentum: a few coordinates of each tensor get a gradient every
// step, and the rest get one for a while and then none for at least 1 000
// steps, so their velocity decays by μ each step. In IEEE arithmetic it
// sinks into the subnormal range and stays there (0.9·2⁻¹⁴⁹ rounds back to
// 2⁻¹⁴⁹), the regime where every x86 operation on it is about a hundred
// times slower; SGD must flush it to ±0 instead and train the same weights,
// bit for bit.
func TestMomentumSparseGradientsLeaveNoSubnormalVelocity(t *testing.T) {
	const lr, mu, steps, quiet = 0.05, 0.9, 1400, 1000
	shapes := [][]int{{13, 37}, {37}, {5}}
	r := fxrand.New(12)
	var got, ref []*nn.Param
	for _, shape := range shapes {
		w := tensor.New(shape...).RandN(r, 1)
		got = append(got, nn.NewParam("w", w.Clone()))
		ref = append(ref, nn.NewParam("w", w))
	}
	sgd := NewMomentumSGD(lr, mu)
	ieee := &ieeeMomentum{lr: lr, mu: mu, velocity: map[*nn.Param]*tensor.Dense{}}
	for step := 0; step < steps; step++ {
		grads := make([]*tensor.Dense, len(shapes))
		for i, shape := range shapes {
			grads[i] = tensor.New(shape...)
			g := grads[i].Data()
			for j := range g {
				// Every eighth coordinate stays in the top-k set; the others
				// drop out at staggered steps before the quiet stretch.
				if j%8 == 0 || step < (steps-quiet)*(j%8)/8 {
					g[j] = float32(r.NormFloat64() / 4)
				}
			}
		}
		sgd.Step(got, grads)
		ieee.Step(ref, grads)
	}
	subnormals := 0
	for i := range shapes {
		w, wRef := got[i].Value.Data(), ref[i].Value.Data()
		v, vRef := sgd.velocity[got[i]].Data(), ieee.velocity[ref[i]].Data()
		for j := range w {
			if math.Float32bits(w[j]) != math.Float32bits(wRef[j]) {
				t.Fatalf("tensor %d: w[%d] = %v, IEEE momentum %v", i, j, w[j], wRef[j])
			}
			if subnormal(v[j]) {
				t.Fatalf("tensor %d: velocity[%d] = %v is subnormal", i, j, v[j])
			}
			if subnormal(vRef[j]) {
				subnormals++
			}
			if math.Float32bits(v[j]) != math.Float32bits(vRef[j]) && (v[j] != 0 || math.Abs(float64(vRef[j])) > 0x1p-126) {
				t.Fatalf("tensor %d: velocity[%d] = %v, IEEE momentum %v: only entries at or below 2⁻¹²⁶ may differ", i, j, v[j], vRef[j])
			}
		}
	}
	if subnormals == 0 {
		t.Fatal("the IEEE reference holds no subnormal velocity; the test does not reach the regime")
	}
	t.Logf("%d of the IEEE reference's velocity entries are subnormal", subnormals)
}
