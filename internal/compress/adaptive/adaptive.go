// Package adaptive implements adaptive-threshold quantized SGD [21] (Dryden
// et al.): per mini-batch, pick thresholds τ⁺ and τ⁻ so that a proportion α
// of the positive and of the negative gradient elements are transmitted; the
// selected elements quantize to the mean of their respective part, so the
// wire carries two floats plus two index sets — a hybrid of sparsification
// and 1-bit quantization.
package adaptive

import (
	"fmt"
	"sort"

	"repro/internal/encode"
	"repro/internal/grace"
)

func init() {
	grace.Register(grace.Meta{
		Name:      "adaptive",
		Class:     "hybrid",
		Output:    "adaptive",
		Nature:    "deterministic",
		DefaultEF: true,
		Reference: "Dryden et al., MLHPC 2016 [21]",
		New: func(o grace.Options) (grace.Compressor, error) {
			alpha := o.Ratio
			if alpha == 0 {
				alpha = 0.01
			}
			if alpha <= 0 || alpha > 1 {
				return nil, fmt.Errorf("adaptive: alpha %v out of (0,1]", alpha)
			}
			return &Compressor{alpha: alpha}, nil
		},
	})
}

// Compressor selects the top α fraction of each sign's elements.
type Compressor struct {
	alpha float64
}

var _ grace.Compressor = (*Compressor)(nil)

// Name returns "adaptive".
func (*Compressor) Name() string { return "adaptive" }

// Strategy returns Allgather.
func (*Compressor) Strategy() grace.Strategy { return grace.Allgather }

// Compress determines τ⁺/τ⁻ by sampling each part's magnitude distribution
// (the adaptive step) and emits the two part means plus the selected indices.
func (c *Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	var pos, neg []int
	for i, v := range g {
		if v > 0 {
			pos = append(pos, i)
		} else if v < 0 {
			neg = append(neg, i)
		}
	}
	posSel, posMean := c.selectPart(g, pos, false)
	negSel, negMean := c.selectPart(g, neg, true)

	w := encode.NewWriter(16 + len(posSel) + len(negSel))
	w.F32(posMean)
	w.F32(negMean)
	w.BytesSlice(encode.EncodeIndices(posSel))
	w.BytesSlice(encode.EncodeIndices(negSel))
	return &grace.Payload{Bytes: w.Bytes()}, nil
}

// selectPart picks the α-largest-magnitude indices of one sign's part and
// returns them with the mean of the selected values.
func (c *Compressor) selectPart(g []float32, part []int, negative bool) ([]int, float32) {
	if len(part) == 0 {
		return nil, 0
	}
	k := max(int(c.alpha*float64(len(part))), 1)
	// Threshold at the (1-α) magnitude quantile of this part.
	mags := make([]float64, len(part))
	for i, j := range part {
		m := float64(g[j])
		if m < 0 {
			m = -m
		}
		mags[i] = m
	}
	sort.Float64s(mags)
	tau := mags[len(mags)-k]
	sel := make([]int, 0, k)
	var sum float64
	for _, j := range part {
		m := float64(g[j])
		if negative {
			m = -m
		}
		if m >= tau && len(sel) < k {
			sel = append(sel, j)
			sum += m
		}
	}
	if len(sel) == 0 {
		return nil, 0
	}
	mean := float32(sum / float64(len(sel)))
	if negative {
		mean = -mean
	}
	return sel, mean
}

// Decompress fills the positive indices with the positive mean and the
// negative indices with the negative mean.
func (c *Compressor) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	r := encode.NewReader(p.Bytes)
	posMean := r.F32()
	negMean := r.F32()
	posBlock := r.BytesSlice()
	negBlock := r.BytesSlice()
	if r.Err() != nil {
		return nil, fmt.Errorf("adaptive: %w", r.Err())
	}
	out := make([]float32, info.Size())
	fill := func(block []byte, mean float32) error {
		idx, err := encode.DecodeIndices(block)
		if err != nil {
			return err
		}
		for _, i := range idx {
			if i < 0 || i >= len(out) {
				return fmt.Errorf("adaptive: index %d out of %d", i, len(out))
			}
			out[i] = mean
		}
		return nil
	}
	if err := fill(posBlock, posMean); err != nil {
		return nil, err
	}
	if err := fill(negBlock, negMean); err != nil {
		return nil, err
	}
	return out, nil
}
