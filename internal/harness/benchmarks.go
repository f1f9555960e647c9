package harness

import (
	"fmt"
	"time"

	"repro/internal/data"
	"repro/internal/grace"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
)

// Benchmark is one row of the paper's Table II, scaled to the Go substrate.
// ComputePerIter models the V100 forward/backward time of one iteration; it
// is chosen so the ratio of communication volume to compute time matches the
// paper's benchmark (compute-bound vs communication-bound character — see
// EXPERIMENTS.md for the calibration).
type Benchmark struct {
	Name          string
	PaperModel    string // the Table II model this stands in for
	Task          string
	Metric        string
	LowerIsBetter bool

	BatchSize      int
	Epochs         int
	ComputePerIter time.Duration

	NewModel     func(seed uint64) grace.Model
	NewDataset   func() data.Dataset
	NewOptimizer func() optim.Optimizer
	// NewEval returns the quality evaluator (bound to a held-out set).
	NewEval func() func(m grace.Model) float64
}

// ScaledEpochs applies the harness scale factor (cheap CI runs vs full runs).
func (b Benchmark) ScaledEpochs(scale float64) int {
	e := int(float64(b.Epochs) * scale)
	if e < 1 {
		e = 1
	}
	return e
}

// Benchmarks returns the suite in Table II order. Dataset construction is
// deferred so callers only pay for what they run.
func Benchmarks() []Benchmark {
	return []Benchmark{
		cnnSmall(), cnnMid(), cnnFast(), mlpWide(), smallLayer(), cnnLarge(), ncf(), lstmPTB(), segNet(),
	}
}

// BenchmarkByName finds a benchmark.
func BenchmarkByName(name string) (Benchmark, error) {
	for _, b := range Benchmarks() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("harness: unknown benchmark %q", name)
}

// --- Image classification ---

func imagePair(classes, n int, seed uint64) (train, test data.Dataset) {
	cfg := data.ImagesConfig{Classes: classes, C: 1, H: 16, W: 16, N: n, Noise: 1.3, Seed: seed}
	train = data.NewImages(cfg)
	cfg.N = n / 4
	cfg.SampleSalt = 1
	test = data.NewImages(cfg)
	return train, test
}

func classifierEval(test data.Dataset) func(m grace.Model) float64 {
	return func(m grace.Model) float64 {
		return models.EvalAccuracy(m.(*models.Classifier), test, 64)
	}
}

// cnnSmall stands in for ResNet-20 on CIFAR-10: small parameter count
// relative to convolution compute — hard compute-bound (Fig 6a).
func cnnSmall() Benchmark {
	return Benchmark{
		Name: "cnnsmall", PaperModel: "ResNet-20 / CIFAR-10",
		Task: "image classification", Metric: "top-1 accuracy",
		BatchSize: 16, Epochs: 10, ComputePerIter: 25 * time.Millisecond,
		NewModel: func(seed uint64) grace.Model {
			return models.NewCNNClassifier(seed, models.CNNConfig{
				InC: 1, H: 16, W: 16, Channels: []int{8, 16}, Hidden: 32, Classes: 10})
		},
		NewDataset:   func() data.Dataset { tr, _ := imagePair(10, 640, 11); return tr },
		NewOptimizer: func() optim.Optimizer { return optim.NewMomentumSGD(0.02, 0.9) },
		NewEval: func() func(m grace.Model) float64 {
			_, te := imagePair(10, 640, 11)
			return classifierEval(te)
		},
	}
}

// cnnMid stands in for DenseNet40-K12 on CIFAR-10 (Fig 6b): deeper, still
// compute-bound.
func cnnMid() Benchmark {
	return Benchmark{
		Name: "cnnmid", PaperModel: "DenseNet40-K12 / CIFAR-10",
		Task: "image classification", Metric: "top-1 accuracy",
		BatchSize: 16, Epochs: 10, ComputePerIter: 30 * time.Millisecond,
		NewModel: func(seed uint64) grace.Model {
			return models.NewCNNClassifier(seed, models.CNNConfig{
				InC: 1, H: 16, W: 16, Channels: []int{8, 16, 32}, Hidden: 32, Classes: 10})
		},
		NewDataset:   func() data.Dataset { tr, _ := imagePair(10, 640, 13); return tr },
		NewOptimizer: func() optim.Optimizer { return optim.NewMomentumSGD(0.02, 0.9) },
		NewEval: func() func(m grace.Model) float64 {
			_, te := imagePair(10, 640, 13)
			return classifierEval(te)
		},
	}
}

// cnnFast stands in for the custom ResNet-9 (Fig 9): a fast model where
// transport differences (TCP vs RDMA) show clearly.
func cnnFast() Benchmark {
	return Benchmark{
		Name: "cnnfast", PaperModel: "ResNet-9 / CIFAR-10",
		Task: "image classification", Metric: "top-1 accuracy",
		BatchSize: 32, Epochs: 6, ComputePerIter: 4 * time.Millisecond,
		NewModel: func(seed uint64) grace.Model {
			return models.NewCNNClassifier(seed, models.CNNConfig{
				InC: 1, H: 16, W: 16, Channels: []int{16, 32}, Hidden: 64, Classes: 10})
		},
		NewDataset:   func() data.Dataset { tr, _ := imagePair(10, 640, 17); return tr },
		NewOptimizer: func() optim.Optimizer { return optim.NewSGD(0.04) },
		NewEval: func() func(m grace.Model) float64 {
			_, te := imagePair(10, 640, 17)
			return classifierEval(te)
		},
	}
}

// mlpWide stands in for VGG-16 on CIFAR-10: parameters concentrated in wide
// dense layers, gradient volume large relative to compute —
// communication-bound (Fig 1, Fig 6 discussion).
func mlpWide() Benchmark {
	return Benchmark{
		Name: "mlpwide", PaperModel: "VGG-16 / CIFAR-10",
		Task: "image classification", Metric: "top-1 accuracy",
		BatchSize: 16, Epochs: 10, ComputePerIter: 3 * time.Millisecond,
		NewModel: func(seed uint64) grace.Model {
			return models.NewMLPClassifier(seed, 256, []int{768, 384}, 10)
		},
		NewDataset:   func() data.Dataset { tr, _ := imagePair(10, 640, 19); return tr },
		NewOptimizer: func() optim.Optimizer { return optim.NewMomentumSGD(0.02, 0.9) },
		NewEval: func() func(m grace.Model) float64 {
			_, te := imagePair(10, 640, 19)
			return classifierEval(te)
		},
	}
}

// smallLayer is the autotuner's stress model: one wide dense layer next to
// several small ones, with near-zero compute, so per-tensor communication
// cost dominates and differs by orders of magnitude across tensors. The
// right policy is heterogeneous — sparsify the wide layer, leave the small
// ones (where α dominates and compression only adds codec time) alone —
// which a single static method cannot express.
func smallLayer() Benchmark {
	return Benchmark{
		Name: "smalllayer", PaperModel: "mixed-width dense stack (autotune study)",
		Task: "image classification", Metric: "top-1 accuracy",
		BatchSize: 16, Epochs: 6, ComputePerIter: 500 * time.Microsecond,
		NewModel: func(seed uint64) grace.Model {
			return models.NewMLPClassifier(seed, 256, []int{512, 32, 16}, 10)
		},
		NewDataset:   func() data.Dataset { tr, _ := imagePair(10, 640, 29); return tr },
		NewOptimizer: func() optim.Optimizer { return optim.NewMomentumSGD(0.02, 0.9) },
		NewEval: func() func(m grace.Model) float64 {
			_, te := imagePair(10, 640, 29)
			return classifierEval(te)
		},
	}
}

// cnnLarge stands in for ResNet-50 on ImageNet (Fig 6c, Fig 10): borderline
// between compute- and communication-bound at 10 Gbps, so dropping to 1 Gbps
// flips many methods into the winning region.
func cnnLarge() Benchmark {
	return Benchmark{
		Name: "cnnlarge", PaperModel: "ResNet-50 / ImageNet",
		Task: "image classification", Metric: "top-1 accuracy",
		BatchSize: 16, Epochs: 8, ComputePerIter: 12 * time.Millisecond,
		NewModel: func(seed uint64) grace.Model {
			return models.NewCNNClassifier(seed, models.CNNConfig{
				InC: 1, H: 16, W: 16, Channels: []int{8, 16}, Hidden: 128, Classes: 20})
		},
		NewDataset:   func() data.Dataset { tr, _ := imagePair(20, 800, 23); return tr },
		NewOptimizer: func() optim.Optimizer { return optim.NewMomentumSGD(0.02, 0.9) },
		NewEval: func() func(m grace.Model) float64 {
			_, te := imagePair(20, 800, 23)
			return classifierEval(te)
		},
	}
}

// --- Recommendation ---

func ncfData() *data.Ratings {
	return data.NewRatings(data.RatingsConfig{
		Users: 300, Items: 600, LatentDim: 4, PosPerUser: 10, NegPerPos: 4, Seed: 29})
}

// ncf stands in for NCF on MovieLens-20M (Fig 6d): embedding tables dominate
// parameters while per-iteration compute is trivial — the most
// communication-bound benchmark, where compressors reach multi-x speedups.
func ncf() Benchmark {
	return Benchmark{
		Name: "ncf", PaperModel: "NCF / MovieLens-20M",
		Task: "recommendation", Metric: "best hit rate",
		BatchSize: 64, Epochs: 8, ComputePerIter: 300 * time.Microsecond,
		NewModel: func(seed uint64) grace.Model {
			return models.NewNCF(seed, 300, 600, 32, []int{32, 16})
		},
		NewDataset:   func() data.Dataset { return ncfData() },
		NewOptimizer: func() optim.Optimizer { return optim.NewAdam(0.005) },
		NewEval: func() func(m grace.Model) float64 {
			eval := ncfData()
			return func(m grace.Model) float64 {
				return models.EvalHitRate(m.(*models.NCF), eval)
			}
		},
	}
}

// --- Language modeling ---

func lstmData() *data.TokenStream {
	return data.NewTokenStream(data.TokenConfig{
		Vocab: 200, SeqLen: 8, TrainTok: 8000, TestTok: 1600, Successors: 4, Seed: 31})
}

// lstmPTB stands in for the LSTM on Penn Treebank (Fig 6e): few but large
// gradient tensors (embedding + recurrent weights), moderately
// communication-bound.
func lstmPTB() Benchmark {
	return Benchmark{
		Name: "lstm", PaperModel: "LSTM / PTB",
		Task: "language modeling", Metric: "test perplexity", LowerIsBetter: true,
		BatchSize: 16, Epochs: 8, ComputePerIter: 2 * time.Millisecond,
		NewModel: func(seed uint64) grace.Model {
			return models.NewLSTMLM(seed, 200, 32, 64)
		},
		// The paper trains its LM with vanilla SGD; at this scale SGD needs
		// far more epochs than the harness budget, so the benchmark uses
		// ADAM (Algorithm 1 is optimizer-independent; see EXPERIMENTS.md).
		NewDataset:   func() data.Dataset { return lstmData() },
		NewOptimizer: func() optim.Optimizer { return optim.NewAdam(0.01) },
		NewEval: func() func(m grace.Model) float64 {
			eval := lstmData()
			return func(m grace.Model) float64 {
				return models.EvalPerplexity(m.(*models.LSTMLM), eval)
			}
		},
	}
}

// --- Segmentation ---

func segData(n int, salt uint64) data.Dataset {
	return data.NewBlobs(data.BlobsConfig{H: 16, W: 16, N: n, Noise: 0.3, Seed: 37 + salt})
}

// segNet stands in for U-Net on DAGM2007 (Fig 6f): convolution-heavy with a
// small parameter count — compute-bound, so no compressor wins on throughput.
func segNet() Benchmark {
	return Benchmark{
		Name: "segnet", PaperModel: "U-Net / DAGM2007",
		Task: "image segmentation", Metric: "IoU@0.125",
		BatchSize: 8, Epochs: 8, ComputePerIter: 35 * time.Millisecond,
		NewModel: func(seed uint64) grace.Model {
			return models.NewSegNet(seed, []int{8, 16})
		},
		NewDataset:   func() data.Dataset { return segData(320, 0) },
		NewOptimizer: func() optim.Optimizer { return optim.NewRMSProp(0.002) },
		NewEval: func() func(m grace.Model) float64 {
			eval := segData(64, 1)
			return func(m grace.Model) float64 {
				return models.EvalIoU(m.(*models.SegNet), eval, 16)
			}
		},
	}
}

// GradientVectors counts a model's parameter tensors (the paper's "gradient
// vectors" column).
func GradientVectors(m grace.Model) int { return len(m.Params()) }

// TrainingParams counts scalar parameters.
func TrainingParams(m grace.Model) int { return nn.NumParams(m.Params()) }
