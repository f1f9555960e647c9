// Package terngrad implements TernGrad [14]: gradients quantize to
// {−1, 0, +1} scaled by the infinity norm, with each element surviving
// (b_i = 1) with probability |g[i]|/‖g‖∞ — an unbiased randomized operator.
// Ternary symbols are packed 2 bits per element.
package terngrad

import (
	"fmt"

	"repro/internal/compress/cbase"
	"repro/internal/encode"
	"repro/internal/fxrand"
	"repro/internal/grace"
	"repro/internal/tensor"
)

func init() {
	grace.Register(grace.Meta{
		Name:      "terngrad",
		Class:     "quantization",
		Output:    "‖g‖0",
		Nature:    "randomized",
		Reference: "Wen et al., NeurIPS 2017 [14]",
		New: func(o grace.Options) (grace.Compressor, error) {
			return &Compressor{State: cbase.NewState(fxrand.New(o.Seed))}, nil
		},
	})
}

// Ternary symbol values.
const (
	symZero = 0
	symPos  = 1
	symNeg  = 2
)

// Compressor quantizes to scaled ternary values; its survival stream is
// checkpointed codec state.
type Compressor struct {
	cbase.State
}

var _ grace.Stateful = (*Compressor)(nil)

// Name returns "terngrad".
func (*Compressor) Name() string { return "terngrad" }

// Strategy returns Allgather.
func (*Compressor) Strategy() grace.Strategy { return grace.Allgather }

// Compress emits ‖g‖∞ plus 2-bit ternary symbols.
func (c *Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	scale := tensor.NormInfF32(g)
	symbols := make([]uint32, len(g))
	if scale > 0 {
		for i, v := range g {
			a := float64(v)
			if a < 0 {
				a = -a
			}
			if c.RNG.Float64() < a/scale {
				if v >= 0 {
					symbols[i] = symPos
				} else {
					symbols[i] = symNeg
				}
			}
		}
	}
	w := encode.NewWriter(4 + encode.PackedLen(len(g), 2))
	w.F32(float32(scale))
	w.Raw(encode.PackBits(symbols, 2))
	return &grace.Payload{Bytes: w.Bytes()}, nil
}

// Decompress reconstructs ±‖g‖∞ or 0.
func (c *Compressor) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	r := encode.NewReader(p.Bytes)
	scale := r.F32()
	if r.Err() != nil {
		return nil, fmt.Errorf("terngrad: %w", r.Err())
	}
	d := info.Size()
	symbols, err := encode.UnpackBits(p.Bytes[4:], 2, d)
	if err != nil {
		return nil, fmt.Errorf("terngrad: %w", err)
	}
	out := make([]float32, d)
	for i, sym := range symbols {
		switch sym {
		case symPos:
			out[i] = scale
		case symNeg:
			out[i] = -scale
		case symZero:
			// stays 0
		default:
			return nil, fmt.Errorf("terngrad: invalid symbol %d", sym)
		}
	}
	return out, nil
}
