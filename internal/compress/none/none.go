// Package none implements the no-compression baseline: gradients travel as
// dense float32 vectors through Allreduce, exactly as Horovod's default path
// does in the paper's baseline runs.
package none

import (
	"fmt"

	"repro/internal/grace"
)

func init() {
	grace.Register(grace.Meta{
		Name:      "none",
		Class:     "baseline",
		Output:    "‖g‖0",
		Nature:    "deterministic",
		Reference: "no compression",
		New: func(o grace.Options) (grace.Compressor, error) {
			return Compressor{}, nil
		},
	})
}

// Compressor is the identity codec over Allreduce.
type Compressor struct{}

var _ grace.Compressor = Compressor{}

// Name returns "none".
func (Compressor) Name() string { return "none" }

// Strategy returns Allreduce: dense float32 sums directly.
func (Compressor) Strategy() grace.Strategy { return grace.Allreduce }

// Compress hands the gradient through as the dense payload. The payload
// aliases g (see grace.Payload): whoever runs the collective copies it into
// the buffer the allreduce sums in place.
func (Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	return &grace.Payload{Dense: g}, nil
}

// Decompress copies the dense payload back out.
func (Compressor) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	if p.Dense == nil {
		return nil, fmt.Errorf("none: payload has no dense data")
	}
	if len(p.Dense) != info.Size() {
		return nil, fmt.Errorf("none: payload has %d elements, tensor has %d", len(p.Dense), info.Size())
	}
	return append([]float32(nil), p.Dense...), nil
}

// DecompressInto copies the dense payload into dst without allocating
// (grace.DecompressorInto).
func (Compressor) DecompressInto(p *grace.Payload, info grace.TensorInfo, dst []float32) error {
	if p.Dense == nil {
		return fmt.Errorf("none: payload has no dense data")
	}
	if len(p.Dense) != len(dst) {
		return fmt.Errorf("none: payload has %d elements, tensor has %d", len(p.Dense), len(dst))
	}
	copy(dst, p.Dense)
	return nil
}

var _ grace.DecompressorInto = Compressor{}
