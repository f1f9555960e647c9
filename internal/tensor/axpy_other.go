//go:build !amd64

package tensor

func axpy(a float32, x, y []float32) { axpyGeneric(a, x, y) }
