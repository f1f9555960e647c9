package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	name string
	mask []bool
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
	y := x.Clone()
	if train {
		if cap(l.mask) < y.Size() {
			l.mask = make([]bool, y.Size())
		}
		l.mask = l.mask[:y.Size()]
	}
	for i, v := range y.Data() {
		pos := v > 0
		if train {
			l.mask[i] = pos
		}
		if !pos {
			y.Data()[i] = 0
		}
	}
	return y
}

// Backward zeroes gradients where the input was non-positive.
func (l *ReLU) Backward(dout *tensor.Dense) *tensor.Dense {
	dx := dout.Clone()
	for i := range dx.Data() {
		if !l.mask[i] {
			dx.Data()[i] = 0
		}
	}
	return dx
}

func tanh32(x float32) float32 { return float32(math.Tanh(float64(x))) }

func sigmoid32(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}
