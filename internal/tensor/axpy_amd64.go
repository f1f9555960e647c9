package tensor

// useAVX selects the AVX path of Axpy; SSE2 is the amd64 floor. It is set
// once, from the CPU probe, and tests clear it to run the SSE2 path. The
// assembly reads it, so the wrapper below stays inlinable.
var useAVX = cpuAVX()

// Axpy computes y[i] += a·x[i] for i < len(x) (the contract is in axpy.go).
func Axpy(a float32, x, y []float32) { axpy(a, x, y[:len(x)]) }

// Scale computes x[i] *= s.
func Scale(s float32, x []float32) { scale(s, x) }

// MomentumStep computes v[i] = mu·v[i] + g[i], then w[i] += a·v[i], with
// tiny results flushed to zero (the contract is in axpy.go).
func MomentumStep(mu, a float32, g, v, w []float32) {
	checkMomentumLens(g, v, w)
	momentumSSE(mu, a, g, v, w)
}

// The kernels read len(x) (len(g)) only: the callers guarantee the other
// slices are at least as long.
//
//go:noescape
func axpy(a float32, x, y []float32)

//go:noescape
func scale(s float32, x []float32)

//go:noescape
func momentumSSE(mu, a float32, g, v, w []float32)

// cpuAVX reports whether the CPU has AVX and the OS saves its registers.
func cpuAVX() bool
