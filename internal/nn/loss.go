package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy of logits [N, classes]
// against integer labels, returning the loss and d(loss)/d(logits).
func SoftmaxCrossEntropy(logits *tensor.Dense, labels []int) (float64, *tensor.Dense) {
	dl := new(tensor.Dense)
	return SoftmaxCrossEntropyInto(dl, logits, labels), dl
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing d(loss)/d(logits)
// into dl, a buffer the caller reuses from step to step (it is resized to the
// logits' shape).
func SoftmaxCrossEntropyInto(dl, logits *tensor.Dense, labels []int) float64 {
	n := len(labels)
	classes := logits.Size() / n
	if logits.Size() != n*classes {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy logits %v vs %d labels", logits.Shape(), n))
	}
	ld, dd := logits.Data(), dl.Resize(logits.Shape()...).Data()
	var loss float64
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := ld[i*classes : (i+1)*classes]
		drow := dd[i*classes : (i+1)*classes]
		// Stable softmax.
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - max))
			drow[j] = float32(e)
			sum += e
		}
		label := labels[i]
		if label < 0 || label >= classes {
			panic(fmt.Sprintf("nn: label %d out of %d classes", label, classes))
		}
		p := float64(drow[label]) / sum
		loss -= math.Log(math.Max(p, 1e-12)) * inv
		for j := range drow {
			drow[j] = float32((float64(drow[j])/sum - b2f(j == label)) * inv)
		}
	}
	return loss
}

// BCEWithLogits computes the mean binary cross-entropy of logits against
// targets in [0,1], returning the loss and d(loss)/d(logits). The gradient
// uses the numerically exact σ(x)−t form.
func BCEWithLogits(logits, targets *tensor.Dense) (float64, *tensor.Dense) {
	if logits.Size() != targets.Size() {
		panic("nn: BCEWithLogits size mismatch")
	}
	n := logits.Size()
	dl := tensor.New(logits.Shape()...)
	ld, td, dd := logits.Data(), targets.Data(), dl.Data()
	var loss float64
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		x, t := float64(ld[i]), float64(td[i])
		// log(1+exp(x)) computed stably.
		var softplus float64
		if x > 0 {
			softplus = x + math.Log1p(math.Exp(-x))
		} else {
			softplus = math.Log1p(math.Exp(x))
		}
		loss += (softplus - t*x) * inv
		s := 1 / (1 + math.Exp(-x))
		dd[i] = float32((s - t) * inv)
	}
	return loss, dl
}

// MSE computes the mean squared error and its gradient w.r.t. predictions.
func MSE(pred, target *tensor.Dense) (float64, *tensor.Dense) {
	if pred.Size() != target.Size() {
		panic("nn: MSE size mismatch")
	}
	n := pred.Size()
	dl := tensor.New(pred.Shape()...)
	pd, td, dd := pred.Data(), target.Data(), dl.Data()
	var loss float64
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		diff := float64(pd[i]) - float64(td[i])
		loss += diff * diff * inv
		dd[i] = float32(2 * diff * inv)
	}
	return loss, dl
}

// ArgmaxRows returns the argmax of each row of a [N, classes] tensor.
func ArgmaxRows(logits *tensor.Dense, n int) []int {
	classes := logits.Size() / n
	out := make([]int, n)
	ld := logits.Data()
	for i := 0; i < n; i++ {
		row := ld[i*classes : (i+1)*classes]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
