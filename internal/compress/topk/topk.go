// Package topk implements Top-k sparsification [15]: transmit the k gradient
// elements of largest absolute value together with their indices (Figure 4
// of the paper). Deterministic and biased; the paper runs it with error
// feedback on.
package topk

import (
	"fmt"

	"repro/internal/compress/cbase"
	"repro/internal/grace"
)

func init() {
	grace.Register(grace.Meta{
		Name:      "topk",
		Class:     "sparsification",
		Output:    "k",
		Nature:    "deterministic",
		DefaultEF: true,
		Reference: "Aji & Heafield, EMNLP 2017 [15]",
		New: func(o grace.Options) (grace.Compressor, error) {
			ratio := o.Ratio
			if ratio == 0 {
				ratio = 0.01
			}
			if ratio < 0 || ratio > 1 {
				return nil, fmt.Errorf("topk: ratio %v out of (0,1]", ratio)
			}
			return &Compressor{ratio: ratio}, nil
		},
	})
}

// Compressor selects the top-k elements by magnitude.
type Compressor struct {
	ratio float64
}

var _ grace.Compressor = (*Compressor)(nil)

// Name returns "topk".
func (*Compressor) Name() string { return "topk" }

// Strategy returns Allgather (sparse payloads are not summable).
func (*Compressor) Strategy() grace.Strategy { return grace.Allgather }

// Compress selects and serializes the k largest-magnitude elements.
func (c *Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	return &grace.Payload{Bytes: cbase.EncodeTopK(g, cbase.KFor(c.ratio, len(g)))}, nil
}

// Decompress restores the dense gradient with zeros at unselected positions.
func (c *Compressor) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	return cbase.DecodeSparse(p.Bytes, info.Size())
}

// DecompressInto restores the dense gradient into dst without allocating
// (grace.DecompressorInto).
func (c *Compressor) DecompressInto(p *grace.Payload, info grace.TensorInfo, dst []float32) error {
	return cbase.DecodeSparseInto(p.Bytes, dst)
}

var _ grace.DecompressorInto = (*Compressor)(nil)
