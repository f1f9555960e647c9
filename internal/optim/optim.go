// Package optim implements the stochastic optimizers used by the paper's
// benchmarks: SGD, SGD with momentum, RMSProp and ADAM.
//
// GRACE's training loop (Algorithm 1) is optimizer-independent: the optimizer
// consumes the aggregated, decompressed gradient g_k and updates parameters.
// The paper's defaults per task — SGD+momentum for image classification,
// RMSProp for segmentation, ADAM for recommendation, vanilla SGD for language
// modeling — are all available here.
//
// Momentum SGD runs one kernel per parameter, tensor.MomentumStep: v ← μ·v +
// g, then x ← x − η·v, each operation rounded once, in that order, as the
// IEEE calls v.Scale(μ).Add(g) and x.AddScaled(−η, v) round them, except
// that a result below 2⁻¹²⁶ (the subnormal range) is flushed to a zero of
// its sign. Under sparse aggregates (top-k) most coordinates get a zero
// gradient, their velocity decays by μ each step, and in IEEE arithmetic it
// would end up subnormal, where x86 arithmetic runs about a hundred times
// slower. The flush changes no weight as long as η ≤ 1, no weight is
// subnormal, and every weight with a nonzero velocity and every nonzero
// gradient element has a magnitude of at least 2⁻¹⁰⁰: a velocity that small
// then moves no weight and adds nothing to a gradient. Only the velocity
// entries that IEEE arithmetic leaves at or below 2⁻¹²⁶ in magnitude differ;
// they read ±0.
package optim

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Optimizer updates parameters given per-parameter aggregated gradients.
// Step consumes grads[i] as the gradient for params[i].
type Optimizer interface {
	Name() string
	Step(params []*nn.Param, grads []*tensor.Dense)
	// LR reports the current learning rate.
	LR() float64
}

// SGD is plain stochastic gradient descent, optionally with momentum.
type SGD struct {
	lr       float64
	momentum float64
	velocity map[*nn.Param]*tensor.Dense
}

var _ Optimizer = (*SGD)(nil)

// NewSGD returns vanilla SGD.
func NewSGD(lr float64) *SGD { return &SGD{lr: lr} }

// NewMomentumSGD returns SGD with classical momentum.
func NewMomentumSGD(lr, momentum float64) *SGD {
	return &SGD{lr: lr, momentum: momentum, velocity: map[*nn.Param]*tensor.Dense{}}
}

// Name identifies the optimizer configuration.
func (s *SGD) Name() string {
	if s.momentum > 0 {
		return "momentum-sgd"
	}
	return "sgd"
}

// LR reports the current learning rate.
func (s *SGD) LR() float64 { return s.lr }

// Step applies x ← x − η·(v or g).
func (s *SGD) Step(params []*nn.Param, grads []*tensor.Dense) {
	for i, p := range params {
		g := grads[i]
		if s.momentum == 0 {
			p.Value.AddScaled(float32(-s.lr), g)
			continue
		}
		v, ok := s.velocity[p]
		if !ok {
			v = tensor.New(p.Value.Shape()...)
			s.velocity[p] = v
		}
		tensor.MomentumStep(float32(s.momentum), float32(-s.lr), g.Data(), v.Data(), p.Value.Data())
	}
}

// Adam implements Kingma & Ba [46].
type Adam struct {
	lr, beta1, beta2, eps float64
	t                     int
	m, v                  map[*nn.Param]*tensor.Dense
}

var _ Optimizer = (*Adam)(nil)

// NewAdam returns ADAM with the standard defaults β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8,
		m: map[*nn.Param]*tensor.Dense{}, v: map[*nn.Param]*tensor.Dense{}}
}

// Name identifies the optimizer.
func (a *Adam) Name() string { return "adam" }

// LR reports the current learning rate.
func (a *Adam) LR() float64 { return a.lr }

// Step applies the bias-corrected ADAM update.
func (a *Adam) Step(params []*nn.Param, grads []*tensor.Dense) {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range params {
		g := grads[i]
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape()...)
			a.m[p] = m
			a.v[p] = tensor.New(p.Value.Shape()...)
		}
		v := a.v[p]
		md, vd, gd, xd := m.Data(), v.Data(), g.Data(), p.Value.Data()
		b1, b2 := float32(a.beta1), float32(a.beta2)
		for j := range gd {
			md[j] = b1*md[j] + (1-b1)*gd[j]
			vd[j] = b2*vd[j] + (1-b2)*gd[j]*gd[j]
			mHat := float64(md[j]) / c1
			vHat := float64(vd[j]) / c2
			xd[j] -= float32(a.lr * mHat / (math.Sqrt(vHat) + a.eps))
		}
	}
}

// RMSProp implements the running-RMS normalizer used by the paper's
// segmentation benchmark.
type RMSProp struct {
	lr, decay, eps float64
	cache          map[*nn.Param]*tensor.Dense
}

var _ Optimizer = (*RMSProp)(nil)

// NewRMSProp returns RMSProp with decay 0.9 and ε=1e-8.
func NewRMSProp(lr float64) *RMSProp {
	return &RMSProp{lr: lr, decay: 0.9, eps: 1e-8, cache: map[*nn.Param]*tensor.Dense{}}
}

// Name identifies the optimizer.
func (r *RMSProp) Name() string { return "rmsprop" }

// LR reports the current learning rate.
func (r *RMSProp) LR() float64 { return r.lr }

// Step applies the RMSProp update.
func (r *RMSProp) Step(params []*nn.Param, grads []*tensor.Dense) {
	for i, p := range params {
		g := grads[i]
		c, ok := r.cache[p]
		if !ok {
			c = tensor.New(p.Value.Shape()...)
			r.cache[p] = c
		}
		cd, gd, xd := c.Data(), g.Data(), p.Value.Data()
		d := float32(r.decay)
		for j := range gd {
			cd[j] = d*cd[j] + (1-d)*gd[j]*gd[j]
			xd[j] -= float32(r.lr * float64(gd[j]) / (math.Sqrt(float64(cd[j])) + r.eps))
		}
	}
}
