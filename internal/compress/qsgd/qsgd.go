// Package qsgd implements QSGD [9]: codebook quantization with randomized
// rounding (Figure 3 of the paper). Each element is mapped to one of s+1
// levels of |g[i]|/‖g‖₂, choosing between the two bracketing levels with
// probability proportional to proximity, which makes the operator unbiased.
// Symbols (sign + level) are bit-packed, so an s=4 configuration really costs
// 3 bits per element on the wire.
package qsgd

import (
	"fmt"
	"math"

	"repro/internal/compress/cbase"
	"repro/internal/encode"
	"repro/internal/fxrand"
	"repro/internal/grace"
	"repro/internal/tensor"
)

func init() {
	grace.Register(grace.Meta{
		Name:      "qsgd",
		Class:     "quantization",
		Output:    "‖g‖0",
		Nature:    "randomized",
		Reference: "Alistarh et al., NeurIPS 2017 [9]",
		New: func(o grace.Options) (grace.Compressor, error) {
			levels := o.Levels
			if levels == 0 {
				levels = 64
			}
			return New(levels, o.Seed)
		},
	})
}

// Compressor quantizes to s+1 levels with randomized rounding; its rounding
// stream is checkpointed codec state.
type Compressor struct {
	cbase.State
	s         int
	levelBits uint
}

var _ grace.Stateful = (*Compressor)(nil)

// New constructs a QSGD compressor with s levels.
func New(s int, seed uint64) (*Compressor, error) {
	if s < 1 {
		return nil, fmt.Errorf("qsgd: levels %d must be >= 1", s)
	}
	bits := uint(math.Ceil(math.Log2(float64(s + 1))))
	if bits == 0 {
		bits = 1
	}
	return &Compressor{State: cbase.NewState(fxrand.New(seed)), s: s, levelBits: bits}, nil
}

// Name returns "qsgd".
func (*Compressor) Name() string { return "qsgd" }

// Strategy returns Allgather.
func (*Compressor) Strategy() grace.Strategy { return grace.Allgather }

// Compress emits ‖g‖₂ plus bit-packed (sign, level) symbols.
func (c *Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	norm := tensor.Norm2F32(g)
	symbols := make([]uint32, len(g))
	if norm > 0 {
		sf := float64(c.s)
		for i, v := range g {
			r := math.Abs(float64(v)) / norm * sf
			l := math.Floor(r)
			if c.RNG.Float64() < r-l {
				l++
			}
			sym := uint32(min(l, sf))
			if v < 0 {
				sym |= 1 << c.levelBits
			}
			symbols[i] = sym
		}
	}
	w := encode.NewWriter(4 + encode.PackedLen(len(g), c.levelBits+1))
	w.F32(float32(norm))
	w.Raw(encode.PackBits(symbols, c.levelBits+1))
	return &grace.Payload{Bytes: w.Bytes()}, nil
}

// Decompress reconstructs sign·‖g‖₂·level/s.
func (c *Compressor) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	r := encode.NewReader(p.Bytes)
	norm := r.F32()
	if r.Err() != nil {
		return nil, fmt.Errorf("qsgd: %w", r.Err())
	}
	d := info.Size()
	symbols, err := encode.UnpackBits(p.Bytes[4:], c.levelBits+1, d)
	if err != nil {
		return nil, fmt.Errorf("qsgd: %w", err)
	}
	out := make([]float32, d)
	levelMask := uint32(1)<<c.levelBits - 1
	for i, sym := range symbols {
		v := norm * float32(sym&levelMask) / float32(c.s)
		if sym>>c.levelBits != 0 {
			v = -v
		}
		out[i] = v
	}
	return out, nil
}
