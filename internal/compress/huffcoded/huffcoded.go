// Package huffcoded implements the entropy-coding extension discussed in the
// paper's related work (Gajjala et al. [81]): quantized gradients have
// highly skewed symbol distributions, so a lossless Huffman stage shrinks
// their payloads further at extra codec cost. The wrapper composes with any
// inner compressor; the registry exposes the two combinations the reference
// work evaluates (TernGrad and QSGD).
package huffcoded

import (
	"fmt"

	// The wrapped codecs must be registered whenever this package is linked.
	_ "repro/internal/compress/qsgd"
	_ "repro/internal/compress/terngrad"
	"repro/internal/encode"
	"repro/internal/grace"
)

func init() {
	grace.Register(grace.Meta{
		Name:      "huffterngrad",
		Class:     "quantization",
		Output:    "‖g‖0",
		Nature:    "randomized",
		Reference: "Gajjala et al., CoNEXT DistributedML 2020 [81] (extension)",
		New: func(o grace.Options) (grace.Compressor, error) {
			inner, err := grace.New("terngrad", o)
			if err != nil {
				return nil, err
			}
			return Wrap(inner), nil
		},
	})
	grace.Register(grace.Meta{
		Name:      "huffqsgd",
		Class:     "quantization",
		Output:    "‖g‖0",
		Nature:    "randomized",
		Reference: "Gajjala et al., CoNEXT DistributedML 2020 [81] (extension)",
		New: func(o grace.Options) (grace.Compressor, error) {
			if o.Levels == 0 {
				o.Levels = 8
			}
			inner, err := grace.New("qsgd", o)
			if err != nil {
				return nil, err
			}
			return Wrap(inner), nil
		},
	})
}

// Compressor wraps an inner compressor with a Huffman lossless stage; the
// inner codec's state is its state.
type Compressor struct {
	inner grace.Compressor
}

var _ grace.Stateful = (*Compressor)(nil)

// Wrap decorates inner with Huffman coding of its wire payload.
func Wrap(inner grace.Compressor) *Compressor {
	return &Compressor{inner: inner}
}

// Name returns "huff+<inner>".
func (c *Compressor) Name() string { return "huff+" + c.inner.Name() }

// Strategy returns Allgather: entropy-coded payloads are never summable.
func (c *Compressor) Strategy() grace.Strategy { return grace.Allgather }

// Compress runs the inner codec then Huffman-codes the payload bytes.
func (c *Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	p, err := c.inner.Compress(g, info)
	if err != nil {
		return nil, err
	}
	if p.Bytes == nil {
		return nil, fmt.Errorf("huffcoded: inner compressor %s produced no byte payload", c.inner.Name())
	}
	return &grace.Payload{Bytes: encode.HuffmanEncode(p.Bytes)}, nil
}

// Decompress reverses the Huffman stage then the inner codec.
func (c *Compressor) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	raw, err := encode.HuffmanDecode(p.Bytes)
	if err != nil {
		return nil, fmt.Errorf("huffcoded: %w", err)
	}
	return c.inner.Decompress(&grace.Payload{Bytes: raw}, info)
}

// CodecState forwards the inner codec's state; a stateless inner has none.
func (c *Compressor) CodecState() grace.CodecState {
	if sf, ok := c.inner.(grace.Stateful); ok {
		return sf.CodecState()
	}
	return grace.CodecState{}
}

// LoadCodecState forwards to the inner codec.
func (c *Compressor) LoadCodecState(st grace.CodecState) error {
	if sf, ok := c.inner.(grace.Stateful); ok {
		return sf.LoadCodecState(st)
	}
	return nil
}
