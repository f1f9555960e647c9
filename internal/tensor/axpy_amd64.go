package tensor

// Axpy computes y[i] += a·x[i] for i < len(x) (the contract is in axpy.go).
func Axpy(a float32, x, y []float32) { axpySSE(a, x, y[:len(x)]) }

// Scale computes x[i] *= s.
func Scale(s float32, x []float32) { scaleSSE(s, x) }

// axpySSE reads len(x) only: the caller guarantees len(y) >= len(x).
//
//go:noescape
func axpySSE(a float32, x, y []float32)

//go:noescape
func scaleSSE(s float32, x []float32)
