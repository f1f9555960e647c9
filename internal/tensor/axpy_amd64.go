package tensor

func axpy(a float32, x, y []float32) { axpySSE(a, x, y[:len(x)]) }

// axpySSE reads len(x) only: the caller guarantees len(y) >= len(x).
//
//go:noescape
func axpySSE(a float32, x, y []float32)
