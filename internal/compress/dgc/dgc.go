// Package dgc implements Deep Gradient Compression [16]: per-tensor momentum
// correction and gradient accumulation (a form of error feedback), followed
// by threshold sparsification where the threshold is estimated from a sample
// to hit the target ratio. Accumulators are cleared only at transmitted
// positions ("momentum factor masking").
//
// Memory management is built in, so the framework's error-feedback memory
// must stay off for this method (Meta.BuiltinEF).
package dgc

import (
	"fmt"

	"repro/internal/compress/cbase"
	"repro/internal/grace"
)

func init() {
	grace.Register(grace.Meta{
		Name:      "dgc",
		Class:     "sparsification",
		Output:    "adaptive",
		Nature:    "deterministic",
		DefaultEF: true,
		BuiltinEF: true,
		Reference: "Lin et al., ICLR 2018 [16]",
		New: func(o grace.Options) (grace.Compressor, error) {
			ratio := o.Ratio
			if ratio == 0 {
				ratio = 0.01
			}
			if ratio < 0 || ratio > 1 {
				return nil, fmt.Errorf("dgc: ratio %v out of (0,1]", ratio)
			}
			momentum := o.Momentum
			if momentum == 0 {
				momentum = 0.9
			}
			return &Compressor{State: cbase.NewState(nil, "u", "v"), ratio: ratio, momentum: float32(momentum)}, nil
		},
	})
}

// Compressor carries the per-tensor momentum (slot "u") and accumulation
// (slot "v") state, checkpointed as codec state.
type Compressor struct {
	cbase.State
	ratio    float64
	momentum float32
}

var _ grace.Stateful = (*Compressor)(nil)

// Name returns "dgc".
func (*Compressor) Name() string { return "dgc" }

// Strategy returns Allgather.
func (*Compressor) Strategy() grace.Strategy { return grace.Allgather }

// Compress applies momentum correction, accumulates, then transmits the
// elements of the accumulator whose magnitude clears the sampled threshold.
func (c *Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	d := len(g)
	u, _ := c.Vec("u", info.Name, d)
	v, _ := c.Vec("v", info.Name, d)
	for i, gi := range g {
		u[i] = c.momentum*u[i] + gi
		v[i] += u[i]
	}

	k := cbase.KFor(c.ratio, d)
	threshold := cbase.QuantileAbsThreshold(v, c.ratio, 4096, max(1, d/4096))
	// The sampled threshold can overshoot badly: past 2k candidates, fall
	// back to exact top-k selection (one hierarchical refinement step, the
	// expensive loop §V-D profiles). With that many candidates the top k of
	// v are all among them, so the selection runs on v itself.
	idx := make([]int, 0, 2*k+1)
	for i, vi := range v {
		a := vi
		if a < 0 {
			a = -a
		}
		if a >= threshold && a > 0 {
			if idx = append(idx, i); len(idx) > 2*k {
				break
			}
		}
	}
	if len(idx) > 2*k || len(idx) == 0 {
		idx = cbase.TopK(v, k)
	}

	vals := make([]float32, len(idx))
	for i, j := range idx {
		vals[i] = v[j]
	}
	payload := cbase.EncodeSparse(idx, vals)
	// Momentum factor masking: clear transmitted positions.
	for _, j := range idx {
		u[j] = 0
		v[j] = 0
	}
	return &grace.Payload{Bytes: payload}, nil
}

// Decompress restores the dense gradient.
func (c *Compressor) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	return cbase.DecodeSparse(p.Bytes, info.Size())
}
