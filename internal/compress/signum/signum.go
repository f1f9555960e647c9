// Package signum implements SIGNUM [30]: SignSGD applied to a per-tensor
// momentum of the gradient rather than the raw gradient. The momentum buffer
// is compressor-internal state; like SignSGD the paper runs it without error
// feedback.
package signum

import (
	"fmt"

	"repro/internal/compress/cbase"
	"repro/internal/encode"
	"repro/internal/grace"
)

func init() {
	grace.Register(grace.Meta{
		Name:      "signum",
		Class:     "quantization",
		Output:    "‖g‖0",
		Nature:    "deterministic",
		Reference: "Bernstein et al., ICLR 2019 [30]",
		New: func(o grace.Options) (grace.Compressor, error) {
			momentum := o.Momentum
			if momentum == 0 {
				momentum = 0.9
			}
			if momentum < 0 || momentum >= 1 {
				return nil, fmt.Errorf("signum: momentum %v out of [0,1)", momentum)
			}
			return &Compressor{State: cbase.NewState(nil, "m"), momentum: float32(momentum)}, nil
		},
	})
}

// Compressor transmits the sign of the gradient momentum; the per-tensor
// momentum (slot "m") is checkpointed codec state.
type Compressor struct {
	cbase.State
	momentum float32
}

var _ grace.Stateful = (*Compressor)(nil)

// Name returns "signum".
func (*Compressor) Name() string { return "signum" }

// Strategy returns Allgather.
func (*Compressor) Strategy() grace.Strategy { return grace.Allgather }

// Compress updates the momentum m ← βm + (1−β)g and packs sign(m).
func (c *Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	m, _ := c.Vec("m", info.Name, len(g))
	for i, v := range g {
		m[i] = c.momentum*m[i] + (1-c.momentum)*v
	}
	return &grace.Payload{Bytes: encode.PackSigns(m)}, nil
}

// Decompress expands sign bits to ±1.
func (c *Compressor) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	return encode.UnpackSigns(p.Bytes, info.Size())
}
