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

	inShape  []int // original input shape for gradient reshaping
	outShape []int // inShape with the trailing dimension replaced by out
	// Reused from step to step (see Layer): x and dy are headers over the
	// caller's storage flattened to [batch, in] / [batch, out], y and dx own
	// theirs.
	x, dy, y, dx tensor.Dense
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
	d.x.Wrap(x.Data(), batch, d.in)
	y := d.y.Resize(batch, d.out)
	tensor.MatmulInto(y, &d.x, d.w.Value)
	// Add bias row-wise.
	yd, bd := y.Data(), d.b.Value.Data()
	for i := 0; i < batch; i++ {
		row := yd[i*d.out : (i+1)*d.out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	d.outShape = append(append(d.outShape[:0], d.inShape[:len(d.inShape)-1]...), d.out)
	return y.Resize(d.outShape...)
}

// Backward accumulates dW = xᵀ·dY, db = Σ dY and returns dX = dY·Wᵀ.
func (d *Dense) Backward(dout *tensor.Dense) *tensor.Dense {
	d.backwardParams(dout)
	dx := d.dx.Resize(d.dy.Dim(0), d.in)
	tensor.MatmulTBInto(dx, &d.dy, d.w.Value)
	return dx.Resize(d.inShape...)
}

// backwardParams is Backward without dX (see Sequential.DiscardInputGrad).
func (d *Dense) backwardParams(dout *tensor.Dense) {
	batch := dout.Size() / d.out
	dy := d.dy.Wrap(dout.Data(), batch, d.out)
	tensor.MatmulTAAcc(d.w.Grad, &d.x, dy)
	gb := d.b.Grad.Data()
	dyd := dy.Data()
	for i := 0; i < batch; i++ {
		row := dyd[i*d.out : (i+1)*d.out]
		for j, v := range row {
			gb[j] += v
		}
	}
}
