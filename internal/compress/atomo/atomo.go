// Package atomo implements spectral ATOMO [27] (extension beyond the
// paper's 16 implemented methods; Table I row "ATOMO"): the gradient matrix
// is decomposed by truncated SVD, and each singular triple (σ, u, v) is
// transmitted with probability p_i = min(1, s·σ_i/Σσ) under sparsity budget
// s, scaled by 1/p_i so the estimator is unbiased over the retained
// spectrum. Remark 1 of the paper notes QSGD and TernGrad are recoverable
// from ATOMO under the standard basis; this package uses the singular-vector
// basis (spectral ATOMO).
//
// The SVD is a power iteration with deflation truncated at maxTriples,
// which bounds codec cost on large tensors; the dropped tail is the
// deterministic truncation error (documented in EXPERIMENTS.md).
package atomo

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
		Name:      "atomo",
		Class:     "lowrank",
		Output:    "sparsity budget",
		Nature:    "randomized",
		Reference: "Wang et al., NeurIPS 2018 [27] (extension)",
		New: func(o grace.Options) (grace.Compressor, error) {
			budget := o.Rank
			if budget == 0 {
				budget = 3
			}
			if budget < 1 {
				return nil, fmt.Errorf("atomo: sparsity budget %d must be >= 1", budget)
			}
			return &Compressor{State: cbase.NewState(fxrand.New(o.Seed)), budget: budget}, nil
		},
	})
}

// maxTriples caps the power-iteration SVD depth.
const maxTriples = 8

// powerIters is the number of power-iteration refinement steps per triple.
const powerIters = 6

// Compressor transmits sampled singular triples; its sampling stream is
// checkpointed codec state.
type Compressor struct {
	cbase.State
	budget int
}

var _ grace.Stateful = (*Compressor)(nil)

// Name returns "atomo".
func (*Compressor) Name() string { return "atomo" }

// Strategy returns Allgather.
func (*Compressor) Strategy() grace.Strategy { return grace.Allgather }

// Compress factorizes, samples triples by spectral weight, and serializes
// [count | per triple: scale, u, v]. Vectors and tensors too small to profit
// fall back to a dense payload (flagged by count = 0xffff).
const denseFlag = 0xffff

// Compress implements grace.Compressor.
func (c *Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	rows, cols := info.Rows, info.Cols
	k := min(maxTriples, rows, cols)
	// Dense fallback when factorization cannot pay for itself.
	if k < 1 || c.budget*(rows+cols+1) >= rows*cols {
		w := encode.NewWriter(4 + 4*len(g))
		w.U16(denseFlag)
		for _, v := range g {
			w.F32(v)
		}
		return &grace.Payload{Bytes: w.Bytes()}, nil
	}

	m := tensor.FromSlice(append([]float32(nil), g...), rows, cols)
	sigmas, us, vs := truncatedSVD(m, k)

	var sum float64
	for _, s := range sigmas {
		sum += s
	}
	w := encode.NewWriter(64)
	var chosen []int
	if sum > 0 {
		for i, s := range sigmas {
			p := min(float64(c.budget)*s/sum, 1)
			if s > 0 && c.RNG.Float64() < p {
				chosen = append(chosen, i)
				sigmas[i] = s / p // fold 1/p into the scale for unbiasedness
			}
		}
	}
	w.U16(uint16(len(chosen)))
	for _, i := range chosen {
		w.F32(float32(sigmas[i]))
		for _, x := range us[i] {
			w.F32(x)
		}
		for _, x := range vs[i] {
			w.F32(x)
		}
	}
	return &grace.Payload{Bytes: w.Bytes()}, nil
}

// Decompress sums the transmitted rank-1 atoms (or reads the dense
// fallback).
func (c *Compressor) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	r := encode.NewReader(p.Bytes)
	count := r.U16()
	if r.Err() != nil {
		return nil, fmt.Errorf("atomo: %w", r.Err())
	}
	d := info.Size()
	out := make([]float32, d)
	if count == denseFlag {
		for i := range out {
			out[i] = r.F32()
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("atomo: %w", r.Err())
		}
		return out, nil
	}
	rows, cols := info.Rows, info.Cols
	for t := 0; t < int(count); t++ {
		scale := r.F32()
		u := make([]float32, rows)
		for i := range u {
			u[i] = r.F32()
		}
		v := make([]float32, cols)
		for i := range v {
			v[i] = r.F32()
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("atomo: truncated payload: %w", r.Err())
		}
		for i := 0; i < rows; i++ {
			ui := scale * u[i]
			if ui == 0 {
				continue
			}
			row := out[i*cols : (i+1)*cols]
			for j, vj := range v {
				row[j] += ui * vj
			}
		}
	}
	return out, nil
}

// truncatedSVD computes up to k leading singular triples of m by power
// iteration with deflation. Singular vectors are unit length; sigmas are
// non-negative and non-increasing up to iteration tolerance.
func truncatedSVD(m *tensor.Dense, k int) (sigmas []float64, us, vs [][]float32) {
	rows, cols := m.Dim(0), m.Dim(1)
	work := m.Clone()
	// Deterministic seed: factorization must agree across replicas only in
	// distribution, so a fixed stream is fine and keeps tests reproducible.
	rng := fxrand.New(0x5eed)
	for t := 0; t < k; t++ {
		v := make([]float64, cols)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		normalize(v)
		var sigma float64
		u := make([]float64, rows)
		for it := 0; it < powerIters; it++ {
			// u = Mv
			for i := 0; i < rows; i++ {
				var s float64
				row := work.Data()[i*cols : (i+1)*cols]
				for j, vj := range v {
					s += float64(row[j]) * vj
				}
				u[i] = s
			}
			sigma = normalize(u)
			// v = Mᵀu
			for j := range v {
				v[j] = 0
			}
			for i := 0; i < rows; i++ {
				row := work.Data()[i*cols : (i+1)*cols]
				ui := u[i]
				for j := range v {
					v[j] += float64(row[j]) * ui
				}
			}
			sigma = normalize(v)
		}
		if sigma <= 1e-12 {
			break
		}
		uf := make([]float32, rows)
		vf := make([]float32, cols)
		for i := range u {
			uf[i] = float32(u[i])
		}
		for i := range v {
			vf[i] = float32(v[i])
		}
		sigmas = append(sigmas, sigma)
		us = append(us, uf)
		vs = append(vs, vf)
		// Deflate: work -= σ·u·vᵀ.
		for i := 0; i < rows; i++ {
			row := work.Data()[i*cols : (i+1)*cols]
			ui := sigma * u[i]
			for j := range v {
				row[j] -= float32(ui * v[j])
			}
		}
	}
	return sigmas, us, vs
}

// normalize scales x to unit length, returning the original norm.
func normalize(x []float64) float64 {
	var n float64
	for _, v := range x {
		n += v * v
	}
	n = math.Sqrt(n)
	if n > 0 {
		for i := range x {
			x[i] /= n
		}
	}
	return n
}
