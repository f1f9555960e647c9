package cbase

import (
	"fmt"
	"slices"

	"repro/internal/fxrand"
	"repro/internal/grace"
)

// State is the one holder of a codec's private state: an optional random
// stream and named slots of per-tensor vectors. A codec embeds it and so
// implements grace.Stateful; the error-feedback residual is not codec state
// (grace.Memory owns it). Each instance is driven by one goroutine (the
// Engine pins a codec instance to one lane), so State takes no locks.
type State struct {
	// RNG is the codec's random stream, nil for a deterministic codec.
	RNG *fxrand.RNG
	// vecs maps slot → tensor name → vector; the slots are fixed at
	// construction.
	vecs map[string]map[string][]float32
}

// NewState returns a holder with random stream rng (nil for none) and the
// named per-tensor vector slots.
func NewState(rng *fxrand.RNG, slots ...string) State {
	s := State{RNG: rng}
	if len(slots) > 0 {
		s.vecs = make(map[string]map[string][]float32, len(slots))
		for _, slot := range slots {
			s.vecs[slot] = map[string][]float32{}
		}
	}
	return s
}

// Vec returns tensor name's d-element vector in slot, creating it zeroed on
// first use (or when a loaded vector has another length); fresh reports that
// it did. slot must be one NewState declared.
func (s *State) Vec(slot, name string, d int) (v []float32, fresh bool) {
	byName := s.vecs[slot]
	if byName == nil {
		panic(fmt.Sprintf("cbase: undeclared state slot %q", slot))
	}
	if v = byName[name]; len(v) != d {
		v, fresh = make([]float32, d), true
		byName[name] = v
	}
	return v, fresh
}

// CodecState returns a deep copy of the stream position and every slot's
// vectors (grace.Stateful). A holder with slots reports them even while
// empty, which is how the Engine tells a codec with per-tensor vectors from
// one with only a stream.
func (s *State) CodecState() grace.CodecState {
	var st grace.CodecState
	if s.RNG != nil {
		r := s.RNG.State()
		st.RNG = &r
	}
	if s.vecs != nil {
		st.Tensors = make(map[string]map[string][]float32, len(s.vecs))
		for slot, byName := range s.vecs {
			st.Tensors[slot] = cloneVecs(byName)
		}
	}
	return st
}

// LoadCodecState rewinds the stream and replaces every declared slot with a
// deep copy of the snapshot's (grace.Stateful); a holder with a stream needs
// one in the snapshot.
func (s *State) LoadCodecState(st grace.CodecState) error {
	if s.RNG != nil {
		if st.RNG == nil {
			return fmt.Errorf("cbase: codec state has no RNG stream")
		}
		s.RNG.Restore(*st.RNG)
	}
	for slot := range s.vecs {
		s.vecs[slot] = cloneVecs(st.Tensors[slot])
	}
	return nil
}

func cloneVecs(m map[string][]float32) map[string][]float32 {
	out := make(map[string][]float32, len(m))
	for name, v := range m {
		out[name] = slices.Clone(v)
	}
	return out
}
