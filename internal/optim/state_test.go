package optim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fxrand"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func makeParams(seed uint64, shapes ...[]int) []*nn.Param {
	rng := fxrand.New(seed)
	params := make([]*nn.Param, len(shapes))
	for i, sh := range shapes {
		t := tensor.New(sh...)
		d := t.Data()
		for j := range d {
			d[j] = rng.NormFloat32()
		}
		params[i] = &nn.Param{Name: "p" + string(rune('a'+i)), Value: t}
	}
	return params
}

func cloneParams(params []*nn.Param) []*nn.Param {
	out := make([]*nn.Param, len(params))
	for i, p := range params {
		t := tensor.New(p.Value.Shape()...)
		copy(t.Data(), p.Value.Data())
		out[i] = &nn.Param{Name: p.Name, Value: t}
	}
	return out
}

func randGrads(rng *fxrand.RNG, params []*nn.Param) []*tensor.Dense {
	grads := make([]*tensor.Dense, len(params))
	for i, p := range params {
		g := tensor.New(p.Value.Shape()...)
		d := g.Data()
		for j := range d {
			d[j] = rng.NormFloat32() * 0.1
		}
		grads[i] = g
	}
	return grads
}

func paramsBitwiseEqual(t *testing.T, got, want []*nn.Param, label string) {
	t.Helper()
	for i := range want {
		gd, wd := got[i].Value.Data(), want[i].Value.Data()
		for j := range wd {
			if math.Float32bits(gd[j]) != math.Float32bits(wd[j]) {
				t.Fatalf("%s: param %d element %d = %v, want %v (bitwise)", label, i, j, gd[j], wd[j])
			}
		}
	}
}

// TestStateResumeEquivalence runs each optimizer for a few steps, snapshots
// state mid-run, continues in a fresh optimizer seeded from the snapshot, and
// requires the resumed trajectory to match the uninterrupted one bitwise.
func TestStateResumeEquivalence(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Stateful
	}{
		{"sgd", func() Stateful { return NewSGD(0.1) }},
		{"momentum-sgd", func() Stateful { return NewMomentumSGD(0.1, 0.9) }},
		{"adam", func() Stateful { return NewAdam(0.01) }},
		{"rmsprop", func() Stateful { return NewRMSProp(0.01) }},
	}
	shapes := [][]int{{4, 3}, {3}, {2, 2, 2}}
	const before, after = 5, 7
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted reference run.
			ref := makeParams(1, shapes...)
			refOpt := tc.mk()
			rng := fxrand.New(77)
			var gradSeq [][]*tensor.Dense
			for i := 0; i < before+after; i++ {
				gradSeq = append(gradSeq, randGrads(rng, ref))
			}
			for _, g := range gradSeq {
				refOpt.Step(ref, g)
			}

			// Interrupted run: step, snapshot, resume in a fresh optimizer.
			live := makeParams(1, shapes...)
			liveOpt := tc.mk()
			for i := 0; i < before; i++ {
				liveOpt.Step(live, gradSeq[i])
			}
			st := liveOpt.State(live)

			resumed := cloneParams(live)
			resOpt := tc.mk()
			if err := resOpt.LoadState(resumed, st); err != nil {
				t.Fatalf("LoadState: %v", err)
			}
			for i := before; i < before+after; i++ {
				resOpt.Step(resumed, gradSeq[i])
			}
			paramsBitwiseEqual(t, resumed, ref, "resumed vs uninterrupted")
		})
	}
}

// TestStateRoundTripPreservesLazyNils verifies that parameters the optimizer
// has never touched stay nil through a State/LoadState round trip.
func TestStateRoundTripPreservesLazyNils(t *testing.T) {
	params := makeParams(2, []int{3}, []int{2})
	opt := NewMomentumSGD(0.1, 0.9)
	// Snapshot before any step: every velocity slot is still unallocated.
	st := opt.State(params)
	if len(st.Slots) != 1 || st.Slots[0].Name != "velocity" {
		t.Fatalf("unexpected slots: %+v", st.Slots)
	}
	for i, d := range st.Slots[0].Data {
		if d != nil {
			t.Fatalf("param %d velocity non-nil before any step", i)
		}
	}
	fresh := NewMomentumSGD(0.1, 0.9)
	if err := fresh.LoadState(params, st); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if len(fresh.velocity) != 0 {
		t.Fatalf("nil slots materialized %d velocity entries", len(fresh.velocity))
	}
}

// TestLoadStateRejectsMismatches covers the typed validation paths.
func TestLoadStateRejectsMismatches(t *testing.T) {
	params := makeParams(3, []int{4})
	opt := NewAdam(0.01)
	opt.Step(params, randGrads(fxrand.New(1), params))
	st := opt.State(params)

	t.Run("wrong-optimizer", func(t *testing.T) {
		err := NewSGD(0.1).LoadState(params, st)
		if err == nil || !strings.Contains(err.Error(), "cannot load") {
			t.Fatalf("err = %v, want name mismatch", err)
		}
	})
	t.Run("wrong-param-count", func(t *testing.T) {
		more := makeParams(3, []int{4}, []int{2})
		err := NewAdam(0.01).LoadState(more, st)
		if err == nil || !strings.Contains(err.Error(), "entries for") {
			t.Fatalf("err = %v, want param-count mismatch", err)
		}
	})
	t.Run("wrong-vector-size", func(t *testing.T) {
		bad := State{Name: st.Name, Step: st.Step, Slots: []Slot{
			{Name: "m", Data: [][]float32{{1, 2}}},
			{Name: "v", Data: [][]float32{{1, 2}}},
		}}
		err := NewAdam(0.01).LoadState(params, bad)
		if err == nil || !strings.Contains(err.Error(), "elements, want") {
			t.Fatalf("err = %v, want size mismatch", err)
		}
	})
	t.Run("missing-slot", func(t *testing.T) {
		bad := State{Name: st.Name, Slots: []Slot{{Name: "m", Data: make([][]float32, 1)}}}
		err := NewAdam(0.01).LoadState(params, bad)
		if err == nil || !strings.Contains(err.Error(), "missing slot") {
			t.Fatalf("err = %v, want missing slot", err)
		}
	})
}

// TestStateIsDeepCopy: mutating the optimizer after State() must not change
// the exported snapshot.
func TestStateIsDeepCopy(t *testing.T) {
	params := makeParams(4, []int{5})
	opt := NewMomentumSGD(0.1, 0.9)
	rng := fxrand.New(3)
	opt.Step(params, randGrads(rng, params))
	st := opt.State(params)
	before := append([]float32(nil), st.Slots[0].Data[0]...)
	opt.Step(params, randGrads(rng, params))
	for j := range before {
		if st.Slots[0].Data[0][j] != before[j] {
			t.Fatalf("snapshot aliased live state at element %d", j)
		}
	}
}
