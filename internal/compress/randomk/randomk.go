// Package randomk implements Random-k sparsification [17]: transmit k
// uniformly random gradient elements. Biased by design (the unbiased d/k
// rescaling is available as an option); the paper runs it with error
// feedback on.
package randomk

import (
	"fmt"

	"repro/internal/compress/cbase"
	"repro/internal/fxrand"
	"repro/internal/grace"
)

func init() {
	grace.Register(grace.Meta{
		Name:      "randomk",
		Class:     "sparsification",
		Output:    "k",
		Nature:    "randomized",
		DefaultEF: true,
		Reference: "Stich et al., NeurIPS 2018 [17]",
		New: func(o grace.Options) (grace.Compressor, error) {
			ratio := o.Ratio
			if ratio == 0 {
				ratio = 0.01
			}
			if ratio < 0 || ratio > 1 {
				return nil, fmt.Errorf("randomk: ratio %v out of (0,1]", ratio)
			}
			return New(ratio, o.Seed), nil
		},
	})
}

// Compressor selects k uniformly random elements; its sampling stream is
// checkpointed codec state.
type Compressor struct {
	cbase.State
	ratio float64
	// Unbiased applies the d/k rescaling that makes the operator unbiased.
	Unbiased bool
}

var _ grace.Stateful = (*Compressor)(nil)

// New constructs a Random-k compressor directly (examples/tests).
func New(ratio float64, seed uint64) *Compressor {
	return &Compressor{State: cbase.NewState(fxrand.New(seed)), ratio: ratio}
}

// Name returns "randomk".
func (*Compressor) Name() string { return "randomk" }

// Strategy returns Allgather: workers select non-overlapping index sets so
// payloads are not summable.
func (*Compressor) Strategy() grace.Strategy { return grace.Allgather }

// Compress samples k random positions and serializes them.
func (c *Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	k := cbase.KFor(c.ratio, len(g))
	idx := c.RNG.Sample(len(g), k)
	vals := make([]float32, len(idx))
	scale := float32(1)
	if c.Unbiased {
		scale = float32(float64(len(g)) / float64(k))
	}
	for i, j := range idx {
		vals[i] = g[j] * scale
	}
	return &grace.Payload{Bytes: cbase.EncodeSparse(idx, vals)}, nil
}

// Decompress restores the dense gradient with zeros elsewhere.
func (c *Compressor) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	return cbase.DecodeSparse(p.Bytes, info.Size())
}

// DecompressInto restores the dense gradient into dst without allocating
// (grace.DecompressorInto).
func (c *Compressor) DecompressInto(p *grace.Payload, info grace.TensorInfo, dst []float32) error {
	return cbase.DecodeSparseInto(p.Bytes, dst)
}

var _ grace.DecompressorInto = (*Compressor)(nil)
