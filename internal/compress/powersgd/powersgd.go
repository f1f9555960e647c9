// Package powersgd implements PowerSGD [26]: rank-r gradient factorization
// by a single power iteration (Figure 5 of the paper). The gradient matrix
// M (rows×cols) is approximated as P·Qᵀ with P ∈ R^(rows×r), Q ∈ R^(cols×r);
// Q is warm-started from the previous iteration, P is orthonormalized.
//
// PowerSGD owns its communication (Strategy Custom): both factors are dense
// float32 matrices that sum correctly across workers, so they travel through
// two Allreduce calls — the property that makes PowerSGD the only practical
// Allreduce-compatible compressor in the survey. Tensors too small to profit
// from factorization fall back to dense allreduce, as the reference
// implementation does.
package powersgd

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/compress/cbase"
	"repro/internal/encode"
	"repro/internal/fxrand"
	"repro/internal/grace"
	"repro/internal/tensor"
)

func init() {
	grace.Register(grace.Meta{
		Name:      "powersgd",
		Class:     "lowrank",
		Output:    "(m+L)r",
		Nature:    "deterministic",
		DefaultEF: true,
		BuiltinEF: true, // post-compression error feedback per the original
		Reference: "Vogels et al., NeurIPS 2019 [26]",
		New: func(o grace.Options) (grace.Compressor, error) {
			rank := o.Rank
			if rank == 0 {
				rank = 4
			}
			if rank < 1 {
				return nil, fmt.Errorf("powersgd: rank %d must be >= 1", rank)
			}
			return New(rank), nil
		},
	})
}

// Compressor carries the per-tensor warm-start factors (slot "q") and its
// built-in error-feedback memory (slot "mem"), checkpointed as codec state.
type Compressor struct {
	cbase.State
	rank int
}

var (
	_ grace.Stateful   = (*Compressor)(nil)
	_ grace.CustomComm = (*Compressor)(nil)
)

// New constructs a PowerSGD compressor of the given rank.
func New(rank int) *Compressor {
	return &Compressor{State: cbase.NewState(nil, "q", "mem"), rank: rank}
}

// Name returns "powersgd".
func (*Compressor) Name() string { return "powersgd" }

// Strategy returns Custom.
func (*Compressor) Strategy() grace.Strategy { return grace.Custom }

// worthFactoring reports whether the matrix view is large enough that the
// factors are smaller than the dense tensor.
func (c *Compressor) worthFactoring(info grace.TensorInfo) bool {
	return c.rank*(info.Rows+info.Cols) < info.Rows*info.Cols &&
		info.Rows > c.rank && info.Cols > c.rank
}

// warmQ returns the per-tensor Q factor, a view of its state vector,
// initializing it on first use with a deterministic Gaussian seeded by the
// tensor name so all workers agree.
func (c *Compressor) warmQ(info grace.TensorInfo) *tensor.Dense {
	v, fresh := c.Vec("q", info.Name, info.Cols*c.rank)
	q := tensor.FromSlice(v, info.Cols, c.rank)
	if fresh {
		seed := uint64(14695981039346656037)
		for _, ch := range info.Name {
			seed = (seed ^ uint64(ch)) * 1099511628211
		}
		q.RandN(fxrand.New(seed), 1)
		orthonormalize(q)
	}
	return q
}

// CommunicateAggregate runs the two-allreduce PowerSGD round and returns the
// aggregated gradient approximation. Error feedback is built in: the local
// residual (compensated gradient minus aggregated approximation) feeds the
// next iteration.
func (c *Compressor) CommunicateAggregate(g []float32, info grace.TensorInfo, coll comm.Collective) ([]float32, int, error) {
	n := float32(coll.Size())

	// Dense fallback for small tensors.
	if !c.worthFactoring(info) {
		agg := append([]float32(nil), g...)
		if err := coll.AllreduceF32(agg); err != nil {
			return nil, 0, err
		}
		for i := range agg {
			agg[i] /= n
		}
		return agg, len(g) * 4, nil
	}

	// Built-in error feedback: compress x = g + m.
	m, _ := c.Vec("mem", info.Name, len(g))
	x := make([]float32, len(g))
	for i := range x {
		x[i] = g[i] + m[i]
	}

	M := tensor.FromSlice(x, info.Rows, info.Cols)
	q := c.warmQ(info)

	// P = M·Q, allreduced then orthonormalized.
	p := tensor.Matmul(M, q)
	if err := coll.AllreduceF32(p.Data()); err != nil {
		return nil, 0, err
	}
	orthonormalize(p)

	// Q' = Mᵀ·P, allreduced and averaged.
	qNew := tensor.MatmulTA(M, p)
	if err := coll.AllreduceF32(qNew.Data()); err != nil {
		return nil, 0, err
	}
	qNew.Scale(1 / n)
	copy(q.Data(), qNew.Data())

	// Aggregated approximation = P·Q'ᵀ.
	agg := tensor.MatmulTB(p, qNew)
	out := agg.Data()

	// Residual into the memory.
	for i := range m {
		m[i] = x[i] - out[i]
	}
	sent := 4 * c.rank * (info.Rows + info.Cols)
	return out, sent, nil
}

// Compress produces the local (non-communicated) factorization; used by the
// codec micro-benchmarks and round-trip tests. The wire format is P then Q.
func (c *Compressor) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	if !c.worthFactoring(info) {
		// Dense passthrough, flagged by payload length.
		w := encode.NewWriter(4 * len(g))
		for _, v := range g {
			w.F32(v)
		}
		return &grace.Payload{Bytes: w.Bytes()}, nil
	}
	M := tensor.FromSlice(append([]float32(nil), g...), info.Rows, info.Cols)
	q := c.warmQ(info)
	p := tensor.Matmul(M, q)
	orthonormalize(p)
	qNew := tensor.MatmulTA(M, p)
	copy(q.Data(), qNew.Data())
	w := encode.NewWriter(4 * (p.Size() + qNew.Size()))
	for _, x := range [][]float32{p.Data(), qNew.Data()} {
		for _, v := range x {
			w.F32(v)
		}
	}
	return &grace.Payload{Bytes: w.Bytes()}, nil
}

// Decompress reconstructs P·Qᵀ (or the dense passthrough).
func (c *Compressor) Decompress(pay *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	d := info.Size()
	r := encode.NewReader(pay.Bytes)
	if len(pay.Bytes) == 4*d && !c.worthFactoring(info) {
		out := make([]float32, d)
		for i := range out {
			out[i] = r.F32()
		}
		return out, nil
	}
	want := 4 * c.rank * (info.Rows + info.Cols)
	if len(pay.Bytes) != want {
		return nil, fmt.Errorf("powersgd: payload %d bytes, want %d", len(pay.Bytes), want)
	}
	p := tensor.New(info.Rows, c.rank)
	q := tensor.New(info.Cols, c.rank)
	for _, x := range [][]float32{p.Data(), q.Data()} {
		for i := range x {
			x[i] = r.F32()
		}
	}
	return tensor.MatmulTB(p, q).Data(), nil
}

// orthonormalize applies modified Gram-Schmidt to the columns of a (rows×r)
// matrix in place; degenerate columns become zero.
func orthonormalize(m *tensor.Dense) {
	rows, r := m.Dim(0), m.Dim(1)
	col := func(j int) []float64 {
		out := make([]float64, rows)
		for i := 0; i < rows; i++ {
			out[i] = float64(m.At(i, j))
		}
		return out
	}
	setCol := func(j int, v []float64) {
		for i := 0; i < rows; i++ {
			m.Set(float32(v[i]), i, j)
		}
	}
	for j := 0; j < r; j++ {
		v := col(j)
		var origNorm float64
		for _, x := range v {
			origNorm += x * x
		}
		origNorm = math.Sqrt(origNorm)
		// Two projection passes ("twice is enough"): a single pass leaves an
		// O(1) component along earlier columns when the column is nearly
		// parallel to their span, because the stored float32 basis vectors
		// carry rounding error that the residual inherits at full relative
		// magnitude.
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < j; k++ {
				u := col(k)
				var dot float64
				for i := range v {
					dot += v[i] * u[i]
				}
				for i := range v {
					v[i] -= dot * u[i]
				}
			}
		}
		var norm float64
		for _, x := range v {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		// A column that collapsed relative to its original size is linearly
		// dependent on the earlier ones; keep it zero rather than normalize
		// rounding noise into a fake basis direction.
		if norm < 1e-7*origNorm || norm < 1e-30 {
			for i := range v {
				v[i] = 0
			}
		} else {
			for i := range v {
				v[i] /= norm
			}
		}
		setCol(j, v)
	}
}
