package tensor

import (
	"fmt"
	"math"
)

// Axpy is the one multiply-add primitive under every matmul kernel, Add,
// AddScaled and the collectives' reduce: y[i] += a·x[i] for i < len(x), each
// element rounded twice (the product, then the sum) and never fused. y must
// be at least as long as x; Axpy panics otherwise. On amd64 it is the
// assembly axpy: 8 float32 lanes of VMULPS then VADDPS when the CPU and OS
// support AVX, 4 lanes of MULPS then ADDPS (SSE2) otherwise; everywhere else
// it is axpyGeneric. All three give the same bits, so results depend neither
// on the architecture nor on the CPU.
//
// Scale is the other kernel: x[i] *= s, one rounded product per element
// (the assembly scale's MULPS on amd64, scaleGeneric elsewhere, again the
// same bits).
//
// MomentumStep is momentum SGD's update in one pass: v[i] = mu·v[i] + g[i],
// then w[i] += a·v[i], one rounding per operation in that order; g, v and w
// must have one length, and MomentumStep panics otherwise. It differs from
// Scale(mu, v), Axpy(1, g, v) and Axpy(a, v, w) in one respect: a product or
// sum that is tiny after rounding (below 2⁻¹²⁶ once rounded to 24 bits with
// an unbounded exponent, x86's definition) is a zero of its sign instead of
// a subnormal. Velocity entries
// that stop receiving gradient decay through the subnormal range, where
// every x86 operation that reads or writes one costs about a hundred normal
// ones; flushed, they read ±0. On amd64 it is momentumSSE, with MXCSR's
// flush-to-zero bit set for the call (subnormal inputs are not flushed);
// elsewhere momentumGeneric, which gives the same bits.

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

// scaleGeneric is the portable Scale and the oracle of the assembly.
func scaleGeneric(s float32, x []float32) {
	for i := range x {
		x[i] *= s
	}
}

// momentumGeneric is the portable MomentumStep and the oracle of
// momentumSSE.
func momentumGeneric(mu, a float32, g, v, w []float32) {
	v, w = v[:len(g)], w[:len(g)]
	for i, gi := range g {
		vi := flushTiny(mulFTZ(mu, v[i]) + gi)
		v[i] = vi
		w[i] = flushTiny(w[i] + mulFTZ(a, vi))
	}
}

// checkMomentumLens panics unless g, v and w have one length.
func checkMomentumLens(g, v, w []float32) {
	if len(v) != len(g) || len(w) != len(g) {
		panic(fmt.Sprintf("tensor: MomentumStep lengths g=%d v=%d w=%d differ", len(g), len(v), len(w)))
	}
}

// mulFTZ is x·y as a multiply with flush-to-zero computes it. The float64
// product of two float32s is exact, and scaled by 2⁶⁴ it rounds to float32
// at 24 bits however small it is, so the scaled result is below 2⁻⁶² exactly
// when the product is tiny after rounding. Every other product is at least
// 2⁻¹²⁶ − 2⁻¹⁵¹ in magnitude, which IEEE rounding takes to 2⁻¹²⁶ or above,
// so float32 rounds it as the multiply does.
func mulFTZ(x, y float32) float32 {
	p := float64(x) * float64(y)
	if s := float32(p * 0x1p64); s < 0x1p-62 && s > -0x1p-62 {
		return float32(math.Copysign(0, p))
	}
	return float32(p)
}

// flushTiny flushes a sum of two float32s: a sum below 2⁻¹²⁶ is exact (both
// operands are multiples of 2⁻¹⁴⁹), so it is tiny before and after rounding
// alike.
func flushTiny(s float32) float32 {
	if s < 0x1p-126 && s > -0x1p-126 {
		return float32(math.Copysign(0, float64(s)))
	}
	return s
}
