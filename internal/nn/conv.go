package nn

import (
	"fmt"
	"math"

	"repro/internal/fxrand"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over [batch, channels, height, width] inputs,
// implemented with im2col + matrix multiply (the standard CPU lowering).
type Conv2D struct {
	name                string
	inC, outC           int
	kh, kw, stride, pad int
	w, b                *Param

	x    *tensor.Dense // cached input
	cols []*tensor.Dense
	outH int
	outW int
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D builds a convolution with He-normal weights.
func NewConv2D(name string, inC, outC, kernel, stride, pad int, r *fxrand.RNG) *Conv2D {
	w := tensor.New(inC*kernel*kernel, outC).HeInit(r, inC*kernel*kernel)
	b := tensor.New(outC)
	return &Conv2D{
		name: name, inC: inC, outC: outC,
		kh: kernel, kw: kernel, stride: stride, pad: pad,
		w: NewParam(name+".w", w),
		b: NewParam(name+".b", b),
	}
}

// Name returns the layer name.
func (c *Conv2D) Name() string { return c.name }

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// OutSize returns the spatial output size for an input of h×w.
func (c *Conv2D) OutSize(h, w int) (int, int) {
	oh := (h+2*c.pad-c.kh)/c.stride + 1
	ow := (w+2*c.pad-c.kw)/c.stride + 1
	return oh, ow
}

// Forward computes the convolution.
func (c *Conv2D) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	if x.Rank() != 4 || x.Dim(1) != c.inC {
		panic(fmt.Sprintf("nn: %s: input shape %v, want [B,%d,H,W]", c.name, x.Shape(), c.inC))
	}
	b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.OutSize(h, w)
	c.outH, c.outW = oh, ow
	if train {
		c.x = x
		c.cols = c.cols[:0]
	}
	out := tensor.New(b, c.outC, oh, ow)
	for s := 0; s < b; s++ {
		col := c.im2col(x, s, h, w, oh, ow)
		if train {
			c.cols = append(c.cols, col)
		}
		y := tensor.Matmul(col, c.w.Value) // [oh*ow, outC]
		// Scatter into [outC, oh, ow] layout with bias.
		yd := y.Data()
		bd := c.b.Value.Data()
		od := out.Data()[s*c.outC*oh*ow:]
		for pix := 0; pix < oh*ow; pix++ {
			row := yd[pix*c.outC : (pix+1)*c.outC]
			for oc, v := range row {
				od[oc*oh*ow+pix] = v + bd[oc]
			}
		}
	}
	return out
}

// im2col extracts sliding patches of sample s into [oh*ow, inC*kh*kw].
func (c *Conv2D) im2col(x *tensor.Dense, s, h, w, oh, ow int) *tensor.Dense {
	patch := c.inC * c.kh * c.kw
	col := tensor.New(oh*ow, patch)
	xd := x.Data()[s*c.inC*h*w:]
	cd := col.Data()
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			base := (oy*ow + ox) * patch
			iy0 := oy*c.stride - c.pad
			ix0 := ox*c.stride - c.pad
			p := base
			for ic := 0; ic < c.inC; ic++ {
				plane := xd[ic*h*w:]
				for ky := 0; ky < c.kh; ky++ {
					iy := iy0 + ky
					for kx := 0; kx < c.kw; kx++ {
						ix := ix0 + kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							cd[p] = plane[iy*w+ix]
						}
						p++
					}
				}
			}
		}
	}
	return col
}

// Backward accumulates kernel/bias gradients and returns dX.
func (c *Conv2D) Backward(dout *tensor.Dense) *tensor.Dense {
	return c.backward(dout, true)
}

// backwardParams is Backward without dcol, col2im and dX (see
// Sequential.DiscardInputGrad).
func (c *Conv2D) backwardParams(dout *tensor.Dense) { c.backward(dout, false) }

func (c *Conv2D) backward(dout *tensor.Dense, wantDX bool) *tensor.Dense {
	b, h, w := c.x.Dim(0), c.x.Dim(2), c.x.Dim(3)
	oh, ow := c.outH, c.outW
	var dx *tensor.Dense
	if wantDX {
		dx = tensor.New(b, c.inC, h, w)
	}
	patch := c.inC * c.kh * c.kw
	gb := c.b.Grad.Data()
	for s := 0; s < b; s++ {
		// Gather dY of sample s into [oh*ow, outC].
		dy := tensor.New(oh*ow, c.outC)
		dd := dout.Data()[s*c.outC*oh*ow:]
		dyd := dy.Data()
		for oc := 0; oc < c.outC; oc++ {
			plane := dd[oc*oh*ow:]
			for pix := 0; pix < oh*ow; pix++ {
				v := plane[pix]
				dyd[pix*c.outC+oc] = v
				gb[oc] += v
			}
		}
		tensor.MatmulTAAcc(c.w.Grad, c.cols[s], dy)
		if !wantDX {
			continue
		}
		dcol := tensor.MatmulTB(dy, c.w.Value) // [oh*ow, patch]
		// col2im: scatter-add patches back into dx.
		dcd := dcol.Data()
		dxd := dx.Data()[s*c.inC*h*w:]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				base := (oy*ow + ox) * patch
				iy0 := oy*c.stride - c.pad
				ix0 := ox*c.stride - c.pad
				p := base
				for ic := 0; ic < c.inC; ic++ {
					plane := dxd[ic*h*w:]
					for ky := 0; ky < c.kh; ky++ {
						iy := iy0 + ky
						for kx := 0; kx < c.kw; kx++ {
							ix := ix0 + kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								plane[iy*w+ix] += dcd[p]
							}
							p++
						}
					}
				}
			}
		}
	}
	return dx
}

// MaxPool2D performs non-overlapping max pooling with a square window.
type MaxPool2D struct {
	name   string
	size   int
	argmax []int
	inDims [4]int
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D returns a max-pool layer with the given window/stride.
func NewMaxPool2D(name string, size int) *MaxPool2D {
	return &MaxPool2D{name: name, size: size}
}

// Name returns the layer name.
func (m *MaxPool2D) Name() string { return m.name }

// Params returns nil; pooling has no parameters.
func (m *MaxPool2D) Params() []*Param { return nil }

// Forward computes the pooled output, recording argmax positions.
func (m *MaxPool2D) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	b, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := h/m.size, w/m.size
	m.inDims = [4]int{b, ch, h, w}
	out := tensor.New(b, ch, oh, ow)
	if cap(m.argmax) < out.Size() {
		m.argmax = make([]int, out.Size())
	}
	m.argmax = m.argmax[:out.Size()]
	xd, od := x.Data(), out.Data()
	oi := 0
	for s := 0; s < b; s++ {
		for c := 0; c < ch; c++ {
			plane := xd[(s*ch+c)*h*w:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					bestIdx := 0
					for ky := 0; ky < m.size; ky++ {
						for kx := 0; kx < m.size; kx++ {
							idx := (oy*m.size+ky)*w + ox*m.size + kx
							if plane[idx] > best {
								best = plane[idx]
								bestIdx = idx
							}
						}
					}
					od[oi] = best
					m.argmax[oi] = (s*ch+c)*h*w + bestIdx
					oi++
				}
			}
		}
	}
	return out
}

// Backward routes gradients to the argmax positions.
func (m *MaxPool2D) Backward(dout *tensor.Dense) *tensor.Dense {
	dx := tensor.New(m.inDims[0], m.inDims[1], m.inDims[2], m.inDims[3])
	dd, dxd := dout.Data(), dx.Data()
	for i, v := range dd {
		dxd[m.argmax[i]] += v
	}
	return dx
}

// Flatten reshapes [B, ...] to [B, features].
type Flatten struct {
	name    string
	inShape []int
	y, dx   tensor.Dense // reused headers over the caller's storage (see Layer)
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name returns the layer name.
func (f *Flatten) Name() string { return f.name }

// Params returns nil; Flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }

// Forward flattens all but the leading dimension.
func (f *Flatten) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	f.inShape = append(f.inShape[:0], x.Shape()...)
	b := x.Dim(0)
	return f.y.Wrap(x.Data(), b, x.Size()/b)
}

// Backward restores the original shape.
func (f *Flatten) Backward(dout *tensor.Dense) *tensor.Dense {
	return f.dx.Wrap(dout.Data(), f.inShape...)
}

// Upsample2D nearest-neighbour upsamples spatial dimensions by an integer
// factor; the decoder half of the segmentation network uses it in place of
// U-Net's transposed convolutions.
type Upsample2D struct {
	name   string
	factor int
	inDims [4]int
}

var _ Layer = (*Upsample2D)(nil)

// NewUpsample2D returns a nearest-neighbour upsampling layer.
func NewUpsample2D(name string, factor int) *Upsample2D {
	return &Upsample2D{name: name, factor: factor}
}

// Name returns the layer name.
func (u *Upsample2D) Name() string { return u.name }

// Params returns nil; upsampling has no parameters.
func (u *Upsample2D) Params() []*Param { return nil }

// Forward replicates each pixel factor×factor times.
func (u *Upsample2D) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	b, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	u.inDims = [4]int{b, ch, h, w}
	f := u.factor
	out := tensor.New(b, ch, h*f, w*f)
	xd, od := x.Data(), out.Data()
	for p := 0; p < b*ch; p++ {
		in := xd[p*h*w:]
		o := od[p*h*f*w*f:]
		for y := 0; y < h*f; y++ {
			for xx := 0; xx < w*f; xx++ {
				o[y*w*f+xx] = in[(y/f)*w+xx/f]
			}
		}
	}
	return out
}

// Backward sums gradients over each replicated block.
func (u *Upsample2D) Backward(dout *tensor.Dense) *tensor.Dense {
	b, ch, h, w := u.inDims[0], u.inDims[1], u.inDims[2], u.inDims[3]
	f := u.factor
	dx := tensor.New(b, ch, h, w)
	dd, dxd := dout.Data(), dx.Data()
	for p := 0; p < b*ch; p++ {
		in := dd[p*h*f*w*f:]
		o := dxd[p*h*w:]
		for y := 0; y < h*f; y++ {
			for xx := 0; xx < w*f; xx++ {
				o[(y/f)*w+xx/f] += in[y*w*f+xx]
			}
		}
	}
	return dx
}
