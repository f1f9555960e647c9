// Package fxrand provides a small, fast, deterministic pseudo-random number
// generator used throughout the repository.
//
// All stochastic behaviour in the library (weight initialization, dataset
// synthesis, randomized compressors such as QSGD and TernGrad) flows from
// fxrand so that experiments are bit-reproducible across runs and across
// worker replicas. The generator is splitmix64, which is statistically strong
// enough for simulation workloads, allocation free, and trivially forkable
// into independent streams.
package fxrand

import "math"

// RNG is a deterministic pseudo-random number generator.
//
// The zero value is a valid generator seeded with 0; prefer New to make the
// seed explicit. RNG is not safe for concurrent use; fork per-goroutine
// streams with Fork.
type RNG struct {
	state uint64

	// Box-Muller cache for NormFloat64.
	hasSpare bool
	spare    float64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// State is a serializable snapshot of a generator's complete internal state:
// the splitmix64 state word plus the Box-Muller spare cache. Restoring it
// replays the exact continuation of the stream, which is what crash-consistent
// checkpointing needs from every randomized component.
type State struct {
	Word     uint64
	HasSpare bool
	Spare    float64
}

// State captures the generator's current state.
func (r *RNG) State() State {
	return State{Word: r.state, HasSpare: r.hasSpare, Spare: r.spare}
}

// Restore rewinds the generator to a previously captured state; subsequent
// draws reproduce the stream that followed the capture bit for bit.
func (r *RNG) Restore(st State) {
	r.state = st.Word
	r.hasSpare = st.HasSpare
	r.spare = st.Spare
}

// Fork derives an independent generator from r. The derived stream is a
// deterministic function of r's current state and the provided salt, so
// distinct salts yield distinct streams.
func (r *RNG) Fork(salt uint64) *RNG {
	return &RNG{state: r.Uint64() ^ (salt * 0x9e3779b97f4a7c15)}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("fxrand: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection-free bound is overkill here; modulo
	// bias is negligible for the n << 2^64 values used in this repository,
	// but we keep the standard rejection loop for correctness.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Int63 returns a uniform non-negative int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// NormFloat64 returns a standard normal variate via Box-Muller.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// NormFloat32 returns a standard normal float32 variate.
func (r *RNG) NormFloat32() float32 { return float32(r.NormFloat64()) }

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p in place (Fisher-Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// Sample returns k distinct indices drawn uniformly from [0, n) in
// unspecified order. It panics if k > n or k < 0.
//
// For small k relative to n it uses Floyd's algorithm (O(k) expected time and
// memory); otherwise it shuffles a full permutation prefix.
func (r *RNG) Sample(n, k int) []int {
	switch {
	case k < 0 || k > n:
		panic("fxrand: Sample called with k out of range")
	case k == 0:
		return nil
	}
	if k*4 >= n {
		// Dense draw: partial Fisher-Yates over the full index range.
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + r.Intn(n-i)
			p[i], p[j] = p[j], p[i]
		}
		return p[:k]
	}
	// Sparse draw: Floyd's algorithm.
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := seen[t]; dup {
			t = j
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
