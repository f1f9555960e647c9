// Package threelc implements 3LC [23]: ternary quantization with a sparsity
// multiplier s ∈ [1, 2) — elements quantize to {−1, 0, +1}·M with
// M = s·‖g‖∞, so larger s zeroes more elements — followed by an aggressive
// lossless stage (five ternary digits packed per byte, then zero run-length
// encoding). The original design's error compensation is the framework's
// error feedback with β = γ = 1 (DefaultEF): the compressor sees g + m.
package threelc

import (
	"fmt"
	"math"

	"repro/internal/encode"
	"repro/internal/grace"
	"repro/internal/tensor"
)

func init() {
	grace.Register(grace.Meta{
		Name:      "threelc",
		Class:     "hybrid",
		Output:    "adaptive",
		Nature:    "deterministic",
		DefaultEF: true,
		Reference: "Lim et al., MLSys 2019 [23]",
		New: func(o grace.Options) (grace.Compressor, error) {
			s := o.Threshold
			if s == 0 {
				s = 1.0
			}
			if s < 1 || s >= 2 {
				return nil, fmt.Errorf("threelc: sparsity multiplier %v out of [1,2)", s)
			}
			return &Compressor{s: s}, nil
		},
	})
}

// base3PerByte is how many ternary digits fit a byte (3^5 = 243 <= 255).
const base3PerByte = 5

// Compressor quantizes with sparsity multiplier s.
type Compressor struct {
	s float64
}

var _ grace.Compressor = (*Compressor)(nil)

// Name returns "threelc".
func (*Compressor) Name() string { return "threelc" }

// Strategy returns Allgather.
func (*Compressor) Strategy() grace.Strategy { return grace.Allgather }

// Compress quantizes g to scaled ternary, packs 5 digits per byte and ZRLE
// encodes the byte stream.
func (c *Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	d := len(g)
	// M = s·‖g‖∞: a larger sparsity multiplier shrinks (1/M)·g, so more
	// elements round to zero.
	M := float32(tensor.NormInfF32(g) * c.s)
	trits := make([]byte, d) // 0, 1, 2 encoding -1, 0, +1 offset by 1
	for i, v := range g {
		trits[i] = 1
		if M > 0 {
			switch q := math.Round(float64(v / M)); {
			case q <= -1:
				trits[i] = 0
			case q >= 1:
				trits[i] = 2
			}
		}
	}
	// Base-3^5 packing. The digit value 1 ("zero") yields byte value
	// 1+3+9+27+81 = 121 for all-zero groups, so remap so that the all-zero
	// group becomes byte 0 and ZRLE can eat it: subtract 121 mod 256 is not
	// order-preserving, so instead pack digits with "zero" as 0 by mapping
	// {-1,0,+1} -> {1,0,2}.
	packed := make([]byte, (d+base3PerByte-1)/base3PerByte)
	for i, t := range trits {
		digit := byte(0)
		switch t {
		case 0:
			digit = 1
		case 1:
			digit = 0
		case 2:
			digit = 2
		}
		packed[i/base3PerByte] = packed[i/base3PerByte]*3 + digit
	}
	body := encode.ZRLECompress(packed)
	w := encode.NewWriter(8 + len(body))
	w.F32(M)
	w.Uvarint(uint64(len(packed)))
	w.Raw(body)
	return &grace.Payload{Bytes: w.Bytes()}, nil
}

// Decompress reverses the lossless stage and maps digits back to {−M, 0, M}.
func (c *Compressor) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	r := encode.NewReader(p.Bytes)
	M := r.F32()
	claimed := r.Uvarint()
	if r.Err() != nil {
		return nil, fmt.Errorf("threelc: %w", r.Err())
	}
	// The encoder always packs ⌈d/5⌉ groups. Any other count is corrupt, and
	// must not size the decode buffer or the last group's digit count.
	d := info.Size()
	packedLen := (d + base3PerByte - 1) / base3PerByte
	if claimed != uint64(packedLen) {
		return nil, fmt.Errorf("threelc: payload claims %d packed groups, want %d for %d elements", claimed, packedLen, d)
	}
	body := p.Bytes[len(p.Bytes)-r.Remaining():]
	packed, err := encode.ZRLEDecompress(body, packedLen)
	if err != nil {
		return nil, fmt.Errorf("threelc: %w", err)
	}
	out := make([]float32, d)
	for group := 0; group < packedLen; group++ {
		v := packed[group]
		// Digits were packed most-significant first within the group.
		lo := group * base3PerByte
		hi := lo + base3PerByte
		if hi > d {
			hi = d
		}
		nd := hi - lo
		// Extract nd digits; the encoder only shifted nd times for the
		// final partial group.
		digits := make([]byte, nd)
		for i := nd - 1; i >= 0; i-- {
			digits[i] = v % 3
			v /= 3
		}
		for i, digit := range digits {
			switch digit {
			case 1:
				out[lo+i] = -M
			case 2:
				out[lo+i] = M
			}
		}
	}
	return out, nil
}
