//go:build !amd64

package tensor

// Axpy computes y[i] += a·x[i] for i < len(x) (the contract is in axpy.go).
func Axpy(a float32, x, y []float32) { axpyGeneric(a, x, y) }

// Scale computes x[i] *= s.
func Scale(s float32, x []float32) { scaleGeneric(s, x) }

// MomentumStep computes v[i] = mu·v[i] + g[i], then w[i] += a·v[i], with
// tiny results flushed to zero (the contract is in axpy.go).
func MomentumStep(mu, a float32, g, v, w []float32) {
	checkMomentumLens(g, v, w)
	momentumGeneric(mu, a, g, v, w)
}
