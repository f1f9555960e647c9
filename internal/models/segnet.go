package models

import (
	"math"

	"repro/internal/data"
	"repro/internal/fxrand"
	"repro/internal/metrics"
	"repro/internal/nn"
)

// SegNet is the segmentation stand-in for U-Net: a convolutional
// encoder-decoder (conv/pool down, conv/upsample back) producing per-pixel
// defect logits, trained with binary cross-entropy and evaluated by IoU at
// the paper's 0.125 threshold.
type SegNet struct {
	net *nn.Sequential
}

var _ Model = (*SegNet)(nil)

// NewSegNet builds the encoder-decoder with the given stage widths.
func NewSegNet(seed uint64, channels []int) *SegNet {
	r := fxrand.New(seed)
	var layers []nn.Layer
	in := 1
	// Encoder.
	for i, ch := range channels {
		layers = append(layers,
			nn.NewConv2D(dname("enc", i), in, ch, 3, 1, 1, r),
			nn.NewReLU(dname("erelu", i)),
			nn.NewMaxPool2D(dname("epool", i), 2))
		in = ch
	}
	// Decoder.
	for i := len(channels) - 1; i >= 0; i-- {
		out := 1
		if i > 0 {
			out = channels[i-1]
		}
		layers = append(layers,
			nn.NewUpsample2D(dname("up", i), 2),
			nn.NewConv2D(dname("dec", i), in, out, 3, 1, 1, r))
		if i > 0 {
			layers = append(layers, nn.NewReLU(dname("drelu", i)))
		}
		in = out
	}
	return &SegNet{net: nn.NewSequential("segnet", layers...).DiscardInputGrad()}
}

// Params returns the network parameters.
func (s *SegNet) Params() []*nn.Param { return s.net.Params() }

// ForwardBackward trains one batch of (image, mask) pairs.
func (s *SegNet) ForwardBackward(b data.Batch) float64 {
	logits := s.net.Forward(b.X, true)
	loss, dl := nn.BCEWithLogits(logits, b.YF)
	s.net.Backward(dl)
	return loss
}

// EvalIoU computes mean IoU (threshold 0.125) over a held-out set.
func EvalIoU(s *SegNet, ds data.Dataset, batchSize int) float64 {
	idx := data.AllIndices(ds.Len())
	var total float64
	var n int
	for lo := 0; lo < len(idx); lo += batchSize {
		hi := lo + batchSize
		if hi > len(idx) {
			hi = len(idx)
		}
		b := ds.Batch(idx[lo:hi])
		logits := s.net.Forward(b.X, false)
		prob := logits.Clone().Apply(sigmoid32)
		total += metrics.IoU(prob.Data(), b.YF.Data(), 0.125)
		n++
	}
	return total / float64(n)
}

func sigmoid32(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}
