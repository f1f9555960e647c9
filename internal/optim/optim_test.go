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
