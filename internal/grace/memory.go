package grace

import (
	"math"
	"sync"

	"repro/internal/tensor"
)

// Memory implements the paper's error-feedback mechanism (Eq. 4):
//
//	φ(m, g) = β·m + γ·g            (memory_compensate)
//	ψ(m, g, g̃) = φ(m, g) − g̃      (memory_update)
//
// where g̃ is the worker-local decompressed approximation Q⁻¹(Q(φ(m,g))).
// State is per tensor, keyed by TensorInfo.Name. The zero value is not
// usable; construct with NewMemory.
//
// Both run on tensor.Scale and tensor.Axpy (never fused): bitwise the
// expressions above everywhere, but a sum of two NaNs may keep either payload.
//
// Concurrency: a Memory is safe for concurrent use across *distinct* tensor
// names — the map is internally locked, and per-tensor residual slices are
// only ever touched by the caller working on that tensor. Calls for the same
// name must be externally serialized (the Engine guarantees this by pinning
// each tensor to one codec lane).
type Memory struct {
	beta, gamma float32
	mu          sync.RWMutex
	state       map[string][]float32
}

// NewMemory returns an error-feedback memory with decay β and gradient
// weight γ. The paper uses β = γ = 1 unless noted (§IV-A).
func NewMemory(beta, gamma float32) *Memory {
	return &Memory{beta: beta, gamma: gamma, state: make(map[string][]float32)}
}

// residual returns the stored residual slice for a tensor (nil if none).
func (m *Memory) residual(name string) []float32 {
	m.mu.RLock()
	st := m.state[name]
	m.mu.RUnlock()
	return st
}

// Compensate returns φ(m, g) = β·m + γ·g as a fresh slice; g is not mutated.
func (m *Memory) Compensate(name string, g []float32) []float32 {
	return m.compensateInto(make([]float32, len(g)), name, g)
}

// compensateInto writes φ(m, g) into dst (len(dst) == len(g)) and returns
// it; the engine's allocation-free path over its persistent buffers.
func (m *Memory) compensateInto(dst []float32, name string, g []float32) []float32 {
	copy(dst, g)
	if m.gamma != 1 {
		tensor.Scale(m.gamma, dst)
	}
	if st := m.residual(name); st != nil {
		tensor.Axpy(m.beta, st, dst)
	}
	return dst
}

// Update stores ψ = compensated − approx as the new memory for the tensor.
func (m *Memory) Update(name string, compensated, approx []float32) {
	st := m.residual(name)
	if st == nil {
		st = make([]float32, len(compensated))
		m.mu.Lock()
		m.state[name] = st
		m.mu.Unlock()
	}
	copy(st, compensated)
	tensor.Axpy(-1, approx, st)
}

// State returns a deep copy of every tensor's residual memory, keyed by
// tensor name. The copy is safe to serialize or mutate; it shares nothing
// with the live memory.
func (m *Memory) State() map[string][]float32 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string][]float32, len(m.state))
	for name, st := range m.state {
		out[name] = append([]float32(nil), st...)
	}
	return out
}

// LoadState replaces the memory's residual state with a deep copy of st,
// discarding any existing residuals. β and γ are construction-time
// parameters and are not part of the state.
func (m *Memory) LoadState(st map[string][]float32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state = make(map[string][]float32, len(st))
	for name, v := range st {
		m.state[name] = append([]float32(nil), v...)
	}
}

// Norm2 reports the Euclidean norm of a tensor's residual memory (0 when the
// tensor has no state yet); used by tests and diagnostics.
func (m *Memory) Norm2(name string) float64 {
	st := m.residual(name)
	var s float64
	for _, v := range st {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
