package nn

import (
	"fmt"

	"repro/internal/fxrand"
	"repro/internal/tensor"
)

// LSTM is a single-layer long short-term memory network [63] processing
// [batch, time, in] inputs into [batch, time, hidden] outputs with full
// backpropagation through time. The initial state is zero each sequence.
//
// Gate layout within the 4H-wide projections is [i | f | o | g].
type LSTM struct {
	name       string
	in, hidden int
	wx, wh, b  *Param

	// Per-timestep caches for BPTT.
	steps []lstmStep
	batch int
	timeT int
}

type lstmStep struct {
	x, hPrev, cPrev      *tensor.Dense // [B,in], [B,H], [B,H]
	i, f, o, g, c, tanhC *tensor.Dense // [B,H] each
}

var _ Layer = (*LSTM)(nil)

// NewLSTM builds an LSTM with Glorot input weights, orthogonal-ish recurrent
// weights (Glorot is sufficient at this scale) and forget-gate bias 1.
func NewLSTM(name string, in, hidden int, r *fxrand.RNG) *LSTM {
	wx := tensor.New(in, 4*hidden).GlorotInit(r, in, hidden)
	wh := tensor.New(hidden, 4*hidden).GlorotInit(r, hidden, hidden)
	b := tensor.New(4 * hidden)
	for j := hidden; j < 2*hidden; j++ {
		b.Data()[j] = 1 // forget gate bias
	}
	return &LSTM{
		name: name, in: in, hidden: hidden,
		wx: NewParam(name+".wx", wx),
		wh: NewParam(name+".wh", wh),
		b:  NewParam(name+".b", b),
	}
}

// Name returns the layer name.
func (l *LSTM) Name() string { return l.name }

// Params returns input weights, recurrent weights and bias.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }

// Forward runs the recurrence over the time dimension.
func (l *LSTM) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	if x.Rank() != 3 || x.Dim(2) != l.in {
		panic(fmt.Sprintf("nn: %s: input shape %v, want [B,T,%d]", l.name, x.Shape(), l.in))
	}
	b, T := x.Dim(0), x.Dim(1)
	l.batch, l.timeT = b, T
	l.steps = l.steps[:0]
	h := tensor.New(b, l.hidden)
	c := tensor.New(b, l.hidden)
	out := tensor.New(b, T, l.hidden)

	for t := 0; t < T; t++ {
		xt := sliceTime(x, t) // [B,in]
		z := tensor.Matmul(xt, l.wx.Value)
		z.Add(tensor.Matmul(h, l.wh.Value))
		// Add bias.
		zd, bd := z.Data(), l.b.Value.Data()
		for r := 0; r < b; r++ {
			row := zd[r*4*l.hidden : (r+1)*4*l.hidden]
			for j := range row {
				row[j] += bd[j]
			}
		}
		H := l.hidden
		i := tensor.New(b, H)
		f := tensor.New(b, H)
		o := tensor.New(b, H)
		g := tensor.New(b, H)
		cNew := tensor.New(b, H)
		tanhC := tensor.New(b, H)
		hNew := tensor.New(b, H)
		for r := 0; r < b; r++ {
			zr := zd[r*4*H : (r+1)*4*H]
			for j := 0; j < H; j++ {
				iv := sigmoid32(zr[j])
				fv := sigmoid32(zr[H+j])
				ov := sigmoid32(zr[2*H+j])
				gv := tanh32(zr[3*H+j])
				cv := fv*c.Data()[r*H+j] + iv*gv
				tc := tanh32(cv)
				i.Data()[r*H+j] = iv
				f.Data()[r*H+j] = fv
				o.Data()[r*H+j] = ov
				g.Data()[r*H+j] = gv
				cNew.Data()[r*H+j] = cv
				tanhC.Data()[r*H+j] = tc
				hNew.Data()[r*H+j] = ov * tc
			}
		}
		if train {
			l.steps = append(l.steps, lstmStep{
				x: xt, hPrev: h, cPrev: c,
				i: i, f: f, o: o, g: g, c: cNew, tanhC: tanhC,
			})
		}
		h, c = hNew, cNew
		// Write h into out[:, t, :].
		for r := 0; r < b; r++ {
			copy(out.Data()[(r*T+t)*l.hidden:(r*T+t+1)*l.hidden], h.Data()[r*l.hidden:(r+1)*l.hidden])
		}
	}
	return out
}

// Backward performs truncated-free full BPTT and returns d(input).
func (l *LSTM) Backward(dout *tensor.Dense) *tensor.Dense {
	b, T, H := l.batch, l.timeT, l.hidden
	dx := tensor.New(b, T, l.in)
	dhNext := tensor.New(b, H)
	dcNext := tensor.New(b, H)

	for t := T - 1; t >= 0; t-- {
		st := l.steps[t]
		dz := tensor.New(b, 4*H)
		dzd := dz.Data()
		for r := 0; r < b; r++ {
			for j := 0; j < H; j++ {
				k := r*H + j
				dh := dout.Data()[(r*T+t)*H+j] + dhNext.Data()[k]
				do := dh * st.tanhC.Data()[k]
				dc := dcNext.Data()[k] + dh*st.o.Data()[k]*(1-st.tanhC.Data()[k]*st.tanhC.Data()[k])
				di := dc * st.g.Data()[k]
				df := dc * st.cPrev.Data()[k]
				dg := dc * st.i.Data()[k]
				dcNext.Data()[k] = dc * st.f.Data()[k]
				iv, fv, ov, gv := st.i.Data()[k], st.f.Data()[k], st.o.Data()[k], st.g.Data()[k]
				zr := dzd[r*4*H:]
				zr[j] = di * iv * (1 - iv)
				zr[H+j] = df * fv * (1 - fv)
				zr[2*H+j] = do * ov * (1 - ov)
				zr[3*H+j] = dg * (1 - gv*gv)
			}
		}
		tensor.MatmulTAAcc(l.wx.Grad, st.x, dz)
		tensor.MatmulTAAcc(l.wh.Grad, st.hPrev, dz)
		gb := l.b.Grad.Data()
		for r := 0; r < b; r++ {
			row := dzd[r*4*H : (r+1)*4*H]
			for j, v := range row {
				gb[j] += v
			}
		}
		dxt := tensor.MatmulTB(dz, l.wx.Value) // [B,in]
		for r := 0; r < b; r++ {
			copy(dx.Data()[(r*T+t)*l.in:(r*T+t+1)*l.in], dxt.Data()[r*l.in:(r+1)*l.in])
		}
		dhNext = tensor.MatmulTB(dz, l.wh.Value)
	}
	return dx
}

// sliceTime extracts x[:, t, :] from a [B,T,F] tensor as a [B,F] copy.
func sliceTime(x *tensor.Dense, t int) *tensor.Dense {
	b, T, f := x.Dim(0), x.Dim(1), x.Dim(2)
	out := tensor.New(b, f)
	for r := 0; r < b; r++ {
		copy(out.Data()[r*f:(r+1)*f], x.Data()[(r*T+t)*f:(r*T+t+1)*f])
	}
	return out
}
