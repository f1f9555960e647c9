package nn

import (
	"fmt"

	"repro/internal/fxrand"
	"repro/internal/tensor"
)

// Dense is a fully connected layer: y = x·W + b.
//
// It accepts inputs of any rank >= 1 whose trailing dimension equals the
// input feature count; leading dimensions are flattened into the batch, which
// lets the same layer serve per-timestep projections in recurrent models.
type Dense struct {
	name    string
	in, out int
	w, b    *Param

	x       *tensor.Dense // cached input, flattened to [batch, in]
	dw      *tensor.Dense // Backward's xᵀ·dY, kept between steps
	inShape []int         // original input shape for gradient reshaping
}

var _ Layer = (*Dense)(nil)

// NewDense builds a Dense layer with Glorot-uniform weights.
func NewDense(name string, in, out int, r *fxrand.RNG) *Dense {
	w := tensor.New(in, out).GlorotInit(r, in, out)
	b := tensor.New(out)
	return &Dense{
		name: name, in: in, out: out,
		w: NewParam(name+".w", w),
		b: NewParam(name+".b", b),
	}
}

// Name returns the layer name.
func (d *Dense) Name() string { return d.name }

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Forward computes y = x·W + b.
func (d *Dense) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	d.inShape = append(d.inShape[:0], x.Shape()...)
	batch := x.Size() / d.in
	if x.Size()%d.in != 0 {
		panic(fmt.Sprintf("nn: %s: input shape %v incompatible with in=%d", d.name, x.Shape(), d.in))
	}
	flat := x.Reshape(batch, d.in)
	if train {
		d.x = flat
	}
	y := tensor.Matmul(flat, d.w.Value)
	// Add bias row-wise.
	yd, bd := y.Data(), d.b.Value.Data()
	for i := 0; i < batch; i++ {
		row := yd[i*d.out : (i+1)*d.out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	outShape := append(append([]int(nil), d.inShape[:len(d.inShape)-1]...), d.out)
	return y.Reshape(outShape...)
}

// Backward accumulates dW = xᵀ·dY, db = Σ dY and returns dX = dY·Wᵀ.
func (d *Dense) Backward(dout *tensor.Dense) *tensor.Dense {
	batch := dout.Size() / d.out
	dy := dout.Reshape(batch, d.out)
	if d.dw == nil {
		d.dw = tensor.New(d.in, d.out)
	}
	tensor.MatmulTAInto(d.dw, d.x, dy)
	d.w.Grad.Add(d.dw)
	gb := d.b.Grad.Data()
	dyd := dy.Data()
	for i := 0; i < batch; i++ {
		row := dyd[i*d.out : (i+1)*d.out]
		for j, v := range row {
			gb[j] += v
		}
	}
	dx := tensor.MatmulTB(dy, d.w.Value)
	return dx.Reshape(d.inShape...)
}
