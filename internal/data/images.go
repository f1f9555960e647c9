package data

import (
	"repro/internal/fxrand"
	"repro/internal/tensor"
)

// Images is a synthetic image-classification dataset: each class has a random
// low-frequency prototype image, and samples are the prototype plus pixel
// noise. It is learnable by both MLPs and CNNs, with difficulty controlled by
// the noise level, and stands in for CIFAR-10 / ImageNet in the paper's image
// classification benchmarks.
type Images struct {
	Classes, C, H, W int
	protos           []*tensor.Dense
	x                []*tensor.Dense
	y                []int
}

var _ Dataset = (*Images)(nil)

// ImagesConfig parameterizes the generator.
type ImagesConfig struct {
	Classes int
	C, H, W int
	N       int     // number of samples
	Noise   float32 // pixel noise stddev
	Seed    uint64
	// SampleSalt varies the per-sample noise without changing the class
	// prototypes: train and test sets share a Seed and differ in salt.
	SampleSalt uint64
}

// NewImages generates the dataset. Prototypes are smooth (low-frequency)
// patterns so convolution kernels have local structure to exploit.
func NewImages(cfg ImagesConfig) *Images {
	r := fxrand.New(cfg.Seed)
	d := &Images{Classes: cfg.Classes, C: cfg.C, H: cfg.H, W: cfg.W}
	// Build smooth prototypes: random coarse 4x4 grids, bilinearly upsampled.
	const coarse = 4
	for c := 0; c < cfg.Classes; c++ {
		grid := make([]float32, cfg.C*coarse*coarse)
		for i := range grid {
			grid[i] = r.NormFloat32()
		}
		p := tensor.New(cfg.C, cfg.H, cfg.W)
		for ch := 0; ch < cfg.C; ch++ {
			for y := 0; y < cfg.H; y++ {
				for x := 0; x < cfg.W; x++ {
					// Bilinear sample of the coarse grid.
					gy := float32(y) / float32(cfg.H-1) * (coarse - 1)
					gx := float32(x) / float32(cfg.W-1) * (coarse - 1)
					y0, x0 := int(gy), int(gx)
					y1, x1 := min(y0+1, coarse-1), min(x0+1, coarse-1)
					fy, fx := gy-float32(y0), gx-float32(x0)
					g := func(yy, xx int) float32 { return grid[ch*coarse*coarse+yy*coarse+xx] }
					v := g(y0, x0)*(1-fy)*(1-fx) + g(y0, x1)*(1-fy)*fx +
						g(y1, x0)*fy*(1-fx) + g(y1, x1)*fy*fx
					p.Set(v, ch, y, x)
				}
			}
		}
		d.protos = append(d.protos, p)
	}
	rs := r.Fork(cfg.SampleSalt)
	for i := 0; i < cfg.N; i++ {
		c := i % cfg.Classes
		img := d.protos[c].Clone()
		for j := range img.Data() {
			img.Data()[j] += rs.NormFloat32() * cfg.Noise
		}
		d.x = append(d.x, img)
		d.y = append(d.y, c)
	}
	return d
}

// Len returns the number of samples.
func (d *Images) Len() int { return len(d.x) }

// Batch assembles [B,C,H,W] inputs and integer labels.
func (d *Images) Batch(indices []int) Batch {
	b := len(indices)
	x := tensor.New(b, d.C, d.H, d.W)
	y := make([]int, b)
	stride := d.C * d.H * d.W
	for i, idx := range indices {
		copy(x.Data()[i*stride:(i+1)*stride], d.x[idx].Data())
		y[i] = d.y[idx]
	}
	return Batch{X: x, Y: y}
}
