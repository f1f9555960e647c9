package grace_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/fxrand"
	"repro/internal/grace"
)

// This file is the EF-residual handoff property test: across a mid-stream
// method switch — with either handoff policy — the error-feedback recurrence
//
//	comp_t = r_{t-1} + g_t        (β = γ = 1, Eq. 4)
//	r_t    = comp_t − a_t
//
// telescopes exactly: summing the first equation into the second, the applied
// stream plus the carried residual equals the uncompressed gradient stream,
// Σ a_t + r_T = Σ g_t, in exact float arithmetic (each step's identity holds
// bitwise, so the sum does too). The test replays the recurrence outside the
// engine on a single worker (where the aggregate IS the worker's local
// approximation) and requires the engine's residual memory to match it
// elementwise every step, for every registry method the paper runs under
// framework error feedback. On a flush handoff the test further requires the
// applied value to equal the compensated gradient exactly and the residual to
// be exactly zero — the "clean accounting" the flush promises.

// scriptTuner is a deterministic two-candidate Tuner that switches every
// tensor from candidate 0 to candidate 1 at a fixed step, optionally arming
// the EF flush handoff on the switch step.
type scriptTuner struct {
	cands    []grace.TunerCandidate
	switchAt int64
	flush    bool
	step     int64
}

func (s *scriptTuner) Candidates() []grace.TunerCandidate { return s.cands }
func (s *scriptTuner) Sig() string                        { return "script" }
func (s *scriptTuner) Init([]grace.TensorInfo) error      { return nil }

func (s *scriptTuner) Plan(dst []grace.TunerAssign) int {
	switches := 0
	for i := range dst {
		if s.step < s.switchAt {
			dst[i] = grace.TunerAssign{Cand: 0}
			continue
		}
		dst[i] = grace.TunerAssign{Cand: 1, Flush: s.flush && s.step == s.switchAt}
		if s.step == s.switchAt {
			switches++
		}
	}
	return switches
}

func (s *scriptTuner) Observe([]grace.TunerObs) { s.step++ }
func (s *scriptTuner) State() *grace.TunerState {
	return &grace.TunerState{Sig: "script", Step: s.step}
}
func (s *scriptTuner) LoadState(st *grace.TunerState) error { return nil }

// efPropOptions is the fixed knob carrier for the property run; each method
// reads only the knobs it understands (same convention as the golden corpus).
func efPropOptions(method string) grace.Options {
	o := grace.Options{Ratio: 0.25, Levels: 8, Rank: 2, Threshold: 0.05, Momentum: 0.9, Seed: 123}
	if method == "threelc" {
		o.Threshold = 1.5
	}
	return o
}

// TestEFHandoffTelescopes runs every framework-EF method through a scripted
// mid-stream switch under both handoff policies and checks the telescoping
// identity bitwise at every step.
func TestEFHandoffTelescopes(t *testing.T) {
	const (
		steps    = 7
		switchAt = 3
	)
	infos := engineTestInfos(3)

	var methods []string
	for _, meta := range grace.All() {
		if meta.DefaultEF && !meta.BuiltinEF {
			methods = append(methods, meta.Name)
		}
	}
	if len(methods) < 5 {
		t.Fatalf("registry lists only %d framework-EF methods: %v", len(methods), methods)
	}

	for _, method := range methods {
		for _, mode := range []string{"flush", "carry"} {
			t.Run(fmt.Sprintf("%s/%s", method, mode), func(t *testing.T) {
				// The partner candidate is a different lossy codec so the
				// residual is nonzero on both sides of the switch; when the
				// method under test is topk itself, a different ratio keeps
				// the two candidates distinct.
				partner := grace.TunerCandidate{Label: "partner", Method: "topk", Opts: grace.Options{Ratio: 0.5}}
				tn := &scriptTuner{
					cands: []grace.TunerCandidate{
						{Label: "under-test", Method: method, Opts: efPropOptions(method)},
						partner,
					},
					switchAt: switchAt,
					flush:    mode == "flush",
				}
				mem := grace.NewMemory(1, 1)
				eng, err := grace.NewEngine(
					grace.WithCollective(comm.Serial{}),
					grace.WithTuner(tn),
					grace.WithEngineMemory(mem),
				)
				if err != nil {
					t.Fatal(err)
				}

				// residual replays r_t = comp_t − a_t outside the engine.
				residual := make([][]float32, len(infos))
				for step := 0; step < steps; step++ {
					grads := engineTestGrads(0, step, infos)
					// comp_t = r_{t-1} + g_t, replicated before the engine
					// consumes the gradients (β = γ = 1: the multiplications
					// in Eq. 4 are exact identities).
					comps := make([][]float32, len(infos))
					for i, g := range grads {
						comp := make([]float32, len(g))
						if residual[i] == nil {
							copy(comp, g)
						} else {
							for j := range g {
								comp[j] = residual[i][j] + g[j]
							}
						}
						comps[i] = comp
					}

					aggs, rep, err := eng.Step(grads, infos)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}

					wantFlushes := 0
					if mode == "flush" && step == switchAt {
						wantFlushes = len(infos)
					}
					if rep.Flushes != wantFlushes {
						t.Fatalf("step %d ran %d flush handoffs, want %d", step, rep.Flushes, wantFlushes)
					}

					state := mem.State()
					for i, info := range infos {
						a := aggs[i]
						if wantFlushes > 0 {
							// Flush: the applied value is the compensated
							// gradient itself, exactly.
							for j := range a {
								if a[j] != comps[i][j] {
									t.Fatalf("flush step tensor %d elem %d: applied %v != compensated %v",
										i, j, a[j], comps[i][j])
								}
							}
						}
						// r_t = comp_t − a_t; on a single worker a_t is the
						// local approximation, so this must equal the
						// engine's residual memory bitwise.
						got := state[info.Name]
						if len(got) != len(a) {
							t.Fatalf("step %d tensor %d: memory has %d elems, want %d", step, i, len(got), len(a))
						}
						r := make([]float32, len(a))
						allZero := true
						for j := range a {
							r[j] = comps[i][j] - a[j]
							if r[j] != got[j] {
								t.Fatalf("step %d tensor %d elem %d: replayed residual %v != engine memory %v (method %s, %s)",
									step, i, j, r[j], got[j], method, mode)
							}
							if got[j] != 0 {
								allZero = false
							}
						}
						if wantFlushes > 0 && !allZero {
							t.Fatalf("flush step left a nonzero residual on tensor %d", i)
						}
						residual[i] = r
					}
				}
			})
		}
	}
}

// compensateOracle and updateOracle are the scalar loops Memory ran before it
// moved onto the tensor kernels: φ = β·m + γ·g (γ·g with no residual yet)
// and ψ = φ − g̃.
func compensateOracle(beta, gamma float32, m, g []float32) []float32 {
	out := make([]float32, len(g))
	for i, v := range g {
		if m == nil {
			out[i] = gamma * v
		} else {
			out[i] = beta*m[i] + gamma*v
		}
	}
	return out
}

func updateOracle(comp, approx []float32) []float32 {
	out := make([]float32, len(comp))
	for i := range out {
		out[i] = comp[i] - approx[i]
	}
	return out
}

// efOperand fills a vector from one of the input classes the EF kernels are
// held to: random values, signed zeros, subnormals, or infinities mixed in.
func efOperand(r *fxrand.RNG, n int, class string) []float32 {
	g := make([]float32, n)
	for i := range g {
		g[i] = r.NormFloat32()
		switch {
		case class == "zero" && r.Intn(2) == 0:
			g[i] = float32(math.Copysign(0, float64(r.Intn(2)*2-1)))
		case class == "subnormal" && r.Intn(2) == 0:
			g[i] = math.Float32frombits(r.Uint32()&0x807fffff | 1)
		case class == "inf" && r.Intn(4) == 0:
			g[i] = float32(math.Inf(r.Intn(2)*2 - 1))
		}
	}
	return g
}

// TestMemoryKernelsMatchScalarLoops holds Memory's Compensate and Update to
// the scalar loops they replaced, bitwise, over every input class and β, γ
// in {1, 0.9, 0.5}, on the first step (no residual) and three later ones.
// Engine and Pipeline share Memory, so TestEngineMatchesPipeline cannot see
// a change here. Where both addends are NaN only NaN-ness is compared: the
// payload an addition of two NaNs keeps depends on their order.
func TestMemoryKernelsMatchScalarLoops(t *testing.T) {
	same := func(a, b float32) bool {
		return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
	}
	coeffs := []float32{1, 0.9, 0.5}
	for _, class := range []string{"random", "zero", "subnormal", "inf"} {
		for _, beta := range coeffs {
			for _, gamma := range coeffs {
				r := fxrand.New(uint64(len(class)) + uint64(beta*100) + uint64(gamma*10))
				mem := grace.NewMemory(beta, gamma)
				var resid []float32
				for step := 0; step < 4; step++ {
					n := 1 + r.Intn(70)
					if resid != nil {
						n = len(resid)
					}
					g, approx := efOperand(r, n, class), efOperand(r, n, class)
					comp, want := mem.Compensate("w", g), compensateOracle(beta, gamma, resid, g)
					for i := range want {
						if !same(comp[i], want[i]) {
							t.Fatalf("%s β=%v γ=%v step %d: φ[%d] = %#x, scalar loop %#x",
								class, beta, gamma, step, i, math.Float32bits(comp[i]), math.Float32bits(want[i]))
						}
					}
					mem.Update("w", comp, approx)
					got := mem.State()["w"]
					resid = updateOracle(comp, approx)
					for i := range resid {
						if !same(got[i], resid[i]) {
							t.Fatalf("%s β=%v γ=%v step %d: ψ[%d] = %#x, scalar loop %#x",
								class, beta, gamma, step, i, math.Float32bits(got[i]), math.Float32bits(resid[i]))
						}
					}
				}
			}
		}
	}
}
