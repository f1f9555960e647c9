//go:build !amd64

package tensor

// Axpy computes y[i] += a·x[i] for i < len(x) (the contract is in axpy.go).
func Axpy(a float32, x, y []float32) { axpyGeneric(a, x, y) }

// Scale computes x[i] *= s.
func Scale(s float32, x []float32) { scaleGeneric(s, x) }
