package models

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/fxrand"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Classifier wraps a feed-forward network with softmax cross-entropy for the
// image-classification benchmarks.
type Classifier struct {
	net *nn.Sequential
	dl  tensor.Dense // d(loss)/d(logits), reused every step
}

var _ Model = (*Classifier)(nil)

// NewMLPClassifier builds a wide multi-layer perceptron. With large hidden
// widths its parameter count is dominated by two dense matrices — the same
// communication-heavy profile as VGG-16's fully connected layers, making it
// the stand-in for the paper's communication-bound image models.
func NewMLPClassifier(seed uint64, inputDim int, hidden []int, classes int) *Classifier {
	r := fxrand.New(seed)
	var layers []nn.Layer
	in := inputDim
	layers = append(layers, nn.NewFlatten("flatten"))
	for i, h := range hidden {
		layers = append(layers,
			nn.NewDense(dname("fc", i), in, h, r),
			nn.NewReLU(dname("relu", i)))
		in = h
	}
	layers = append(layers, nn.NewDense("out", in, classes, r))
	return &Classifier{net: nn.NewSequential("mlp", layers...).DiscardInputGrad()}
}

// CNNConfig sizes a small convolutional classifier.
type CNNConfig struct {
	InC, H, W int
	// Channels per conv stage; each stage is conv3x3 + ReLU + 2x2 maxpool.
	Channels []int
	// Hidden is the dense head width (0 = direct projection).
	Hidden  int
	Classes int
}

// NewCNNClassifier builds a compact CNN: parameter count is small relative
// to its compute, reproducing the compute-bound profile of ResNet/DenseNet
// (§V-B: such models see no throughput win from compression at 10 Gbps).
func NewCNNClassifier(seed uint64, cfg CNNConfig) *Classifier {
	r := fxrand.New(seed)
	var layers []nn.Layer
	in, h, w := cfg.InC, cfg.H, cfg.W
	for i, ch := range cfg.Channels {
		layers = append(layers,
			nn.NewConv2D(dname("conv", i), in, ch, 3, 1, 1, r),
			nn.NewReLU(dname("crelu", i)),
			nn.NewMaxPool2D(dname("pool", i), 2))
		in = ch
		h /= 2
		w /= 2
	}
	layers = append(layers, nn.NewFlatten("flatten"))
	flat := in * h * w
	if cfg.Hidden > 0 {
		layers = append(layers,
			nn.NewDense("head", flat, cfg.Hidden, r),
			nn.NewReLU("hrelu"))
		flat = cfg.Hidden
	}
	layers = append(layers, nn.NewDense("out", flat, cfg.Classes, r))
	return &Classifier{net: nn.NewSequential("cnn", layers...).DiscardInputGrad()}
}

// Params returns the network parameters.
func (c *Classifier) Params() []*nn.Param { return c.net.Params() }

// ForwardBackward runs one batch through softmax cross-entropy.
func (c *Classifier) ForwardBackward(b data.Batch) float64 {
	logits := c.net.Forward(b.X, true)
	loss := nn.SoftmaxCrossEntropyInto(&c.dl, logits, b.Y)
	c.net.Backward(&c.dl)
	return loss
}

// EvalAccuracy computes top-1 accuracy over an image dataset.
func EvalAccuracy(c *Classifier, ds data.Dataset, batchSize int) float64 {
	idx := data.AllIndices(ds.Len())
	var preds, labels []int
	for lo := 0; lo < len(idx); lo += batchSize {
		hi := lo + batchSize
		if hi > len(idx) {
			hi = len(idx)
		}
		b := ds.Batch(idx[lo:hi])
		logits := c.net.Forward(b.X, false)
		preds = append(preds, nn.ArgmaxRows(logits, len(b.Y))...)
		labels = append(labels, b.Y...)
	}
	return metrics.Accuracy(preds, labels)
}

func dname(prefix string, i int) string {
	return fmt.Sprintf("%s%d", prefix, i)
}
