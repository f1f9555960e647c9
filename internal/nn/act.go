package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	name  string
	mask  []bool
	y, dx tensor.Dense // reused from step to step (see Layer)
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name returns the layer name.
func (l *ReLU) Name() string { return l.name }

// Params returns nil; ReLU has no parameters.
func (l *ReLU) Params() []*Param { return nil }

// Forward clamps negatives to zero, remembering the mask for Backward.
func (l *ReLU) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	y := l.y.Resize(x.Shape()...)
	if train {
		if cap(l.mask) < y.Size() {
			l.mask = make([]bool, y.Size())
		}
		l.mask = l.mask[:y.Size()]
	}
	yd := y.Data()
	for i, v := range x.Data() {
		pos := v > 0
		if train {
			l.mask[i] = pos
		}
		if !pos {
			v = 0
		}
		yd[i] = v
	}
	return y
}

// Backward zeroes gradients where the input was non-positive.
func (l *ReLU) Backward(dout *tensor.Dense) *tensor.Dense {
	dx := l.dx.Resize(dout.Shape()...)
	dxd := dx.Data()
	for i, v := range dout.Data() {
		if !l.mask[i] {
			v = 0
		}
		dxd[i] = v
	}
	return dx
}

func tanh32(x float32) float32 { return float32(math.Tanh(float64(x))) }

func sigmoid32(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}
