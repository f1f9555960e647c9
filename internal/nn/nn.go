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
//
// Buffer ownership: a layer may keep the storage of what it returns and
// reuse it, so a returned tensor is valid until the layer's next call of the
// same method — Forward's result until the next Forward, Backward's until
// the next Backward — and a caller that needs it longer copies it. In the
// other direction a layer may hold on to its Forward input (not a copy) until
// the matching Backward, so the caller must not overwrite it in between.
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
	// stop, when non-zero, is 1 + the index of the layer Backward ends at:
	// the first one with parameters (see DiscardInputGrad).
	stop int
}

// paramBackwarder is implemented by layers that can accumulate their
// parameter gradients without also producing the input gradient.
type paramBackwarder interface {
	backwardParams(dout *tensor.Dense)
}

var _ Layer = (*Sequential)(nil)

// NewSequential builds a named layer chain.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, layers: layers}
}

// DiscardInputGrad declares that the chain's input is data, not another
// layer's activation, so nobody reads d(loss)/d(input): Backward then ends
// at the first layer that has parameters, asks it for parameter gradients
// only (Dense skips dX = dY·Wᵀ, Conv2D skips dcol and col2im), and returns
// nil. Parameter gradients are bitwise unaffected. It is opt-in because a
// chain fed by embeddings (NCF's head) needs the input gradient.
func (s *Sequential) DiscardInputGrad() *Sequential {
	for i, l := range s.layers {
		if len(l.Params()) > 0 {
			s.stop = i + 1
			break
		}
	}
	return s
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

// Backward runs the chain back to front; after DiscardInputGrad it stops at
// the first parametrised layer and returns nil.
func (s *Sequential) Backward(dout *tensor.Dense) *tensor.Dense {
	for i := len(s.layers) - 1; i >= 0; i-- {
		l := s.layers[i]
		if i != s.stop-1 {
			dout = l.Backward(dout)
			continue
		}
		if pb, ok := l.(paramBackwarder); ok {
			pb.backwardParams(dout)
		} else {
			l.Backward(dout)
		}
		return nil
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
