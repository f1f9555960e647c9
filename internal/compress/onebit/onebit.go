// Package onebit implements 1-bit SGD [13]: elements below a threshold
// (default 0) quantize to '0', the rest to '1'; decoding maps the two code
// words to the mean of the negative and non-negative parts respectively.
// The original work introduced the memory mechanism m = g − Q⁻¹(g̃); it is
// the framework's error feedback with β = γ = 1 (DefaultEF), which hands the
// compressor g + m and keeps the residual.
package onebit

import (
	"fmt"

	"repro/internal/encode"
	"repro/internal/grace"
)

func init() {
	grace.Register(grace.Meta{
		Name:      "onebit",
		Class:     "quantization",
		Output:    "‖g‖0",
		Nature:    "deterministic",
		DefaultEF: true,
		Reference: "Seide et al., INTERSPEECH 2014 [13]",
		New: func(o grace.Options) (grace.Compressor, error) {
			return &Compressor{threshold: float32(o.Threshold)}, nil
		},
	})
}

// Compressor splits at a fixed threshold.
type Compressor struct {
	threshold float32
}

var _ grace.Compressor = (*Compressor)(nil)

// Name returns "onebit".
func (*Compressor) Name() string { return "onebit" }

// Strategy returns Allgather.
func (*Compressor) Strategy() grace.Strategy { return grace.Allgather }

// Compress quantizes g to one bit per element with two decode means.
func (c *Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	d := len(g)
	var sumLo, sumHi float64
	var nLo, nHi int
	bits := make([]byte, (d+7)/8)
	for i, v := range g {
		if v >= c.threshold {
			bits[i/8] |= 1 << (uint(i) % 8)
			sumHi += float64(v)
			nHi++
		} else {
			sumLo += float64(v)
			nLo++
		}
	}
	meanLo, meanHi := float32(0), float32(0)
	if nLo > 0 {
		meanLo = float32(sumLo / float64(nLo))
	}
	if nHi > 0 {
		meanHi = float32(sumHi / float64(nHi))
	}
	w := encode.NewWriter(8 + len(bits))
	w.F32(meanLo)
	w.F32(meanHi)
	w.Raw(bits)
	return &grace.Payload{Bytes: w.Bytes()}, nil
}

// Decompress maps '0' bits to the negative-part mean and '1' bits to the
// non-negative-part mean.
func (c *Compressor) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	r := encode.NewReader(p.Bytes)
	meanLo := r.F32()
	meanHi := r.F32()
	if r.Err() != nil {
		return nil, fmt.Errorf("onebit: %w", r.Err())
	}
	d := info.Size()
	bits := p.Bytes[8:]
	if len(bits)*8 < d {
		return nil, fmt.Errorf("onebit: %d bits for %d elements", len(bits)*8, d)
	}
	out := make([]float32, d)
	for i := range out {
		if bits[i/8]&(1<<(uint(i)%8)) != 0 {
			out[i] = meanHi
		} else {
			out[i] = meanLo
		}
	}
	return out, nil
}
