package optim

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// State is a serializable, index-ordered view of an optimizer's evolving
// state. The in-memory representation keys slot tensors by live *nn.Param
// pointers, which neither serializes nor iterates deterministically; State
// re-keys every slot by the parameter's position in the Params() slice, which
// is stable across replicas and across process restarts (models are rebuilt
// in the same layer order from the same seed).
type State struct {
	// Name is the optimizer configuration name (Optimizer.Name()); LoadState
	// refuses state captured from a differently configured optimizer.
	Name string
	// Step is the optimizer's step counter (ADAM's bias-correction t); zero
	// for optimizers without one.
	Step int64
	// Slots holds one entry per state tensor family ("velocity", "m", ...).
	Slots []Slot
}

// Slot is one named family of per-parameter state vectors.
type Slot struct {
	// Name identifies the slot ("velocity", "m", "v", "cache").
	Name string
	// Data[i] is the flat state vector for params[i]; nil when the optimizer
	// has not yet allocated state for that parameter (lazily initialized
	// slots stay nil until the first Step touches the parameter).
	Data [][]float32
}

// Stateful is implemented by optimizers whose state can be exported for
// checkpointing and restored for a bitwise-identical training continuation.
// All optimizers in this package implement it.
type Stateful interface {
	Optimizer
	// State returns a deep copy of the optimizer's state, keyed by position
	// in params. params must be the same slice the optimizer steps over.
	State(params []*nn.Param) State
	// LoadState replaces the optimizer's state with a deep copy of st. The
	// optimizer must be configured identically to the one that produced st
	// (same Name), and every present vector must match its parameter's size.
	LoadState(params []*nn.Param, st State) error
}

var (
	_ Stateful = (*SGD)(nil)
	_ Stateful = (*Adam)(nil)
	_ Stateful = (*RMSProp)(nil)
)

// exportSlot copies a pointer-keyed slot map into params order.
func exportSlot(name string, params []*nn.Param, m map[*nn.Param]*tensor.Dense) Slot {
	s := Slot{Name: name, Data: make([][]float32, len(params))}
	for i, p := range params {
		if t, ok := m[p]; ok {
			s.Data[i] = append([]float32(nil), t.Data()...)
		}
	}
	return s
}

// importSlot rebuilds a pointer-keyed slot map from an index-ordered slot.
// The destination map is cleared first so stale entries cannot survive.
func importSlot(opt string, params []*nn.Param, m map[*nn.Param]*tensor.Dense, s Slot) error {
	if len(s.Data) != len(params) {
		return fmt.Errorf("optim: %s slot %q has %d entries for %d params", opt, s.Name, len(s.Data), len(params))
	}
	for k := range m {
		delete(m, k)
	}
	for i, p := range params {
		d := s.Data[i]
		if d == nil {
			continue
		}
		if len(d) != p.Value.Size() {
			return fmt.Errorf("optim: %s slot %q param %d (%s): %d elements, want %d",
				opt, s.Name, i, p.Name, len(d), p.Value.Size())
		}
		t := tensor.New(p.Value.Shape()...)
		copy(t.Data(), d)
		m[p] = t
	}
	return nil
}

// findSlot locates a named slot in st.
func findSlot(opt string, st State, name string) (Slot, error) {
	for _, s := range st.Slots {
		if s.Name == name {
			return s, nil
		}
	}
	return Slot{}, fmt.Errorf("optim: %s state is missing slot %q", opt, name)
}

// checkName verifies st was captured from an identically configured optimizer.
func checkName(o Optimizer, st State) error {
	if st.Name != o.Name() {
		return fmt.Errorf("optim: cannot load %q state into %q optimizer", st.Name, o.Name())
	}
	return nil
}

// State exports the momentum velocity (empty for vanilla SGD).
func (s *SGD) State(params []*nn.Param) State {
	st := State{Name: s.Name()}
	if s.momentum != 0 {
		st.Slots = []Slot{exportSlot("velocity", params, s.velocity)}
	}
	return st
}

// LoadState restores the momentum velocity.
func (s *SGD) LoadState(params []*nn.Param, st State) error {
	if err := checkName(s, st); err != nil {
		return err
	}
	if s.momentum == 0 {
		return nil
	}
	slot, err := findSlot(s.Name(), st, "velocity")
	if err != nil {
		return err
	}
	if s.velocity == nil {
		s.velocity = map[*nn.Param]*tensor.Dense{}
	}
	return importSlot(s.Name(), params, s.velocity, slot)
}

// State exports the first/second moment estimates and the step counter.
func (a *Adam) State(params []*nn.Param) State {
	return State{Name: a.Name(), Step: int64(a.t), Slots: []Slot{
		exportSlot("m", params, a.m),
		exportSlot("v", params, a.v),
	}}
}

// LoadState restores the moment estimates and the bias-correction counter.
func (a *Adam) LoadState(params []*nn.Param, st State) error {
	if err := checkName(a, st); err != nil {
		return err
	}
	m, err := findSlot(a.Name(), st, "m")
	if err != nil {
		return err
	}
	v, err := findSlot(a.Name(), st, "v")
	if err != nil {
		return err
	}
	if err := importSlot(a.Name(), params, a.m, m); err != nil {
		return err
	}
	if err := importSlot(a.Name(), params, a.v, v); err != nil {
		return err
	}
	a.t = int(st.Step)
	return nil
}

// State exports the running RMS cache.
func (r *RMSProp) State(params []*nn.Param) State {
	return State{Name: r.Name(), Slots: []Slot{exportSlot("cache", params, r.cache)}}
}

// LoadState restores the running RMS cache.
func (r *RMSProp) LoadState(params []*nn.Param, st State) error {
	if err := checkName(r, st); err != nil {
		return err
	}
	slot, err := findSlot(r.Name(), st, "cache")
	if err != nil {
		return err
	}
	return importSlot(r.Name(), params, r.cache, slot)
}
