// Package nn implements the neural-network substrate: layers with
// hand-written backpropagation, parameter containers, and loss functions.
//
// This replaces the TensorFlow/PyTorch autograd stack the paper builds on.
// The contract mirrors what GRACE needs from a toolkit: after a
// forward/backward pass, every trainable parameter exposes a dense float32
// gradient tensor (one "gradient vector" per parameter, in the paper's
// Table II terminology) that the compression pipeline consumes layer-wise.
package nn

import "repro/internal/tensor"

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Dense
	Grad  *tensor.Dense
}

// NewParam allocates a parameter and matching zero gradient.
func NewParam(name string, value *tensor.Dense) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// Layer is a differentiable module.
//
// Forward consumes the input and caches whatever Backward needs; Backward
// consumes the gradient w.r.t. the layer output, accumulates parameter
// gradients, and returns the gradient w.r.t. the layer input. Layers are
// stateful across a single forward/backward pair and not safe for concurrent
// use; each distributed worker owns its own replica.
type Layer interface {
	Name() string
	Forward(x *tensor.Dense, train bool) *tensor.Dense
	Backward(dout *tensor.Dense) *tensor.Dense
	Params() []*Param
}

// Sequential chains layers.
type Sequential struct {
	name   string
	layers []Layer
}

var _ Layer = (*Sequential)(nil)

// NewSequential builds a named layer chain.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, layers: layers}
}

// Name returns the chain's name.
func (s *Sequential) Name() string { return s.name }

// Forward runs the chain front to back.
func (s *Sequential) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	for _, l := range s.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the chain back to front.
func (s *Sequential) Backward(dout *tensor.Dense) *tensor.Dense {
	for i := len(s.layers) - 1; i >= 0; i-- {
		dout = s.layers[i].Backward(dout)
	}
	return dout
}

// Params returns all parameters in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears the gradients of all parameters.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.Grad.Zero()
	}
}

// NumParams returns the total number of scalar parameters, the paper's
// "training parameters" column in Table II.
func NumParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.Value.Size()
	}
	return n
}
