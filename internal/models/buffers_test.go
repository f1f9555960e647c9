package models

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
)

// mlpWide is the model, dataset and batch size of the harness's mlpwide
// benchmark, the one train_tcp_topk trains.
func mlpWide() (*Classifier, data.Dataset) {
	ds := data.NewImages(data.ImagesConfig{Classes: 10, C: 1, H: 16, W: 16, N: 80, Noise: 1.3, Seed: 19})
	return NewMLPClassifier(1, 256, []int{768, 384}, 10), ds
}

func indices(lo, hi int) []int {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return idx
}

// TestClassifierStepAllocs pins the layer-owned buffers: once every buffer has
// been sized, a forward/backward pass of the MLP classifier allocates
// nothing — no activation, no gradient, no reshape header.
func TestClassifierStepAllocs(t *testing.T) {
	m, ds := mlpWide()
	batch := ds.Batch(indices(0, 16))
	params := m.Params()
	for i := 0; i < 2; i++ {
		nn.ZeroGrads(params)
		m.ForwardBackward(batch)
	}
	if n := testing.AllocsPerRun(10, func() { m.ForwardBackward(batch) }); n != 0 {
		t.Fatalf("steady-state Classifier.ForwardBackward allocates %v times per step, want 0", n)
	}
}

// gradBits snapshots every parameter gradient.
func gradBits(ps []*nn.Param) [][]uint32 {
	out := make([][]uint32, len(ps))
	for i, p := range ps {
		out[i] = make([]uint32, p.Grad.Size())
		for j, v := range p.Grad.Data() {
			out[i][j] = math.Float32bits(v)
		}
	}
	return out
}

// TestClassifierBuffersResize runs one long-lived model through a train →
// eval (another batch size, train=false) → train interleave with a ragged
// last batch, and requires every loss and gradient to carry the bits a
// freshly built model (same seed, so same parameters; no buffer sized yet)
// produces for that batch alone.
func TestClassifierBuffersResize(t *testing.T) {
	cnn := CNNConfig{InC: 1, H: 16, W: 16, Channels: []int{4, 8}, Hidden: 32, Classes: 10}
	builders := map[string]func() *Classifier{
		"mlp": func() *Classifier { return NewMLPClassifier(3, 256, []int{48, 24}, 10) },
		"cnn": func() *Classifier { return NewCNNClassifier(3, cnn) },
	}
	_, ds := mlpWide()
	for name, build := range builders {
		long := build()
		step := func(lo, hi int) {
			t.Helper()
			batch := ds.Batch(indices(lo, hi))
			fresh := build()
			nn.ZeroGrads(long.Params())
			gotLoss, wantLoss := long.ForwardBackward(batch), fresh.ForwardBackward(batch)
			if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
				t.Fatalf("%s batch [%d,%d): loss %v, fresh model %v", name, lo, hi, gotLoss, wantLoss)
			}
			got, want := gradBits(long.Params()), gradBits(fresh.Params())
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("%s batch [%d,%d): %s grad[%d] differs from a fresh model's", name, lo, hi, long.Params()[i].Name, j)
					}
				}
			}
		}
		step(0, 16)
		if got, want := EvalAccuracy(long, ds, 64), EvalAccuracy(build(), ds, 64); got != want {
			t.Fatalf("%s: eval between train steps = %v, fresh model %v", name, got, want)
		}
		step(16, 32)
		step(32, 37) // ragged last batch: every buffer shrinks
		step(37, 53) // and grows back
		step(53, 80) // past the first size: storage is reallocated
	}
}

// TestEmbeddingModelsStillGetInputGrad: the input-gradient opt-out is the
// classifiers' and SegNet's only; NCF's head and LSTMLM's projection feed
// their dX to the embeddings, which must keep receiving a gradient.
func TestEmbeddingModelsStillGetInputGrad(t *testing.T) {
	nonZero := func(p *nn.Param) bool {
		for _, v := range p.Grad.Data() {
			if v != 0 {
				return true
			}
		}
		return false
	}
	ratings := data.NewRatings(data.RatingsConfig{Users: 20, Items: 30, LatentDim: 4, PosPerUser: 4, NegPerPos: 2, Seed: 3})
	ncf := NewNCF(1, 20, 30, 8, []int{16})
	ncf.ForwardBackward(ratings.Batch(indices(0, 16)))
	tokens := data.NewTokenStream(data.TokenConfig{Vocab: 30, SeqLen: 8, TrainTok: 400, TestTok: 80, Successors: 3, Seed: 4})
	lm := NewLSTMLM(1, 30, 16, 32)
	lm.ForwardBackward(tokens.Batch(indices(0, 8)))
	for _, p := range []*nn.Param{ncf.userEmb.Params()[0], ncf.itemEmb.Params()[0], lm.emb.Params()[0]} {
		if !nonZero(p) {
			t.Errorf("%s received no gradient: the model's dX was discarded", p.Name)
		}
	}
}
