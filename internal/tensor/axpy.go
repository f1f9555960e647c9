package tensor

// Axpy is the one multiply-add primitive under every matmul kernel, Add,
// AddScaled and the collectives' reduce: y[i] += a·x[i] for i < len(x), each
// element rounded twice (the product, then the sum) and never fused. y must
// be at least as long as x; Axpy panics otherwise. On amd64 it is axpySSE, 4
// float32 lanes of MULPS then ADDPS; everywhere else it is axpyGeneric. Both
// give the same bits, so results do not depend on the architecture.
//
// Scale is the other kernel: x[i] *= s, one rounded product per element
// (scaleSSE's MULPS on amd64, scaleGeneric elsewhere, again the same bits).

// axpyGeneric is the portable axpy and the oracle the assembly is tested
// against. The float32 conversion forbids the compiler from fusing the
// multiply into the add (it would on arm64, ppc64le, s390x and riscv64),
// which rounds once and changes the low bit.
func axpyGeneric(a float32, x, y []float32) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += float32(a * v)
	}
}

// scaleGeneric is the portable Scale and the oracle of scaleSSE.
func scaleGeneric(s float32, x []float32) {
	for i := range x {
		x[i] *= s
	}
}
