// Package natural implements natural compression [31]: each element rounds
// to one of the two nearest integer powers of two, randomized so the operator
// is unbiased (probability proportional to proximity). The wire format is one
// byte per element: a sign bit plus a 7-bit biased exponent, with 0 reserved
// for zero — a 4x reduction over float32.
package natural

import (
	"fmt"
	"math"

	"repro/internal/compress/cbase"
	"repro/internal/fxrand"
	"repro/internal/grace"
)

func init() {
	grace.Register(grace.Meta{
		Name:      "natural",
		Class:     "quantization",
		Output:    "‖g‖0",
		Nature:    "randomized",
		DefaultEF: true,
		Reference: "Horvath et al., 2019 [31]",
		New: func(o grace.Options) (grace.Compressor, error) {
			return &Compressor{State: cbase.NewState(fxrand.New(o.Seed))}, nil
		},
	})
}

// expBias centers the 7-bit exponent field; representable exponents span
// [-63, 63], covering every gradient magnitude that occurs in practice.
const expBias = 64

// Compressor rounds to powers of two; its rounding stream is checkpointed
// codec state.
type Compressor struct {
	cbase.State
}

var _ grace.Stateful = (*Compressor)(nil)

// Name returns "natural".
func (*Compressor) Name() string { return "natural" }

// Strategy returns Allgather.
func (*Compressor) Strategy() grace.Strategy { return grace.Allgather }

// Compress encodes each element as sign + exponent of the randomized
// power-of-two rounding.
func (c *Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	out := make([]byte, len(g))
	for i, v := range g {
		out[i] = c.encodeOne(v)
	}
	return &grace.Payload{Bytes: out}, nil
}

func (c *Compressor) encodeOne(v float32) byte {
	if v == 0 {
		return 0
	}
	a := math.Abs(float64(v))
	e := math.Floor(math.Log2(a))
	lo := math.Pow(2, e)
	// Round up to 2^(e+1) with probability (a-lo)/lo, the unbiased choice:
	// E[out] = lo*(1-p) + 2lo*p = lo*(1+p) = a when p = a/lo - 1.
	if c.RNG.Float64() < a/lo-1 {
		e++
	}
	ei := int(e) + expBias
	if ei < 1 {
		return 0 // underflow to zero
	}
	b := byte(min(ei, 127))
	if v < 0 {
		b |= 0x80
	}
	return b
}

// Decompress reconstructs ±2^(e−bias).
func (c *Compressor) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	if len(p.Bytes) != info.Size() {
		return nil, fmt.Errorf("natural: %d bytes for %d elements", len(p.Bytes), info.Size())
	}
	out := make([]float32, len(p.Bytes))
	for i, b := range p.Bytes {
		e := int(b & 0x7f)
		if e == 0 {
			continue
		}
		v := float32(math.Pow(2, float64(e-expBias)))
		if b&0x80 != 0 {
			v = -v
		}
		out[i] = v
	}
	return out, nil
}
