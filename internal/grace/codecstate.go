package grace

import (
	"fmt"

	"repro/internal/fxrand"
)

// CodecState is a serializable snapshot of one compressor instance's evolving
// state. Two kinds of state exist in this repository's methods:
//
//   - Per-tensor vectors (DGC's momentum u and accumulator v), keyed
//     slot name → tensor name → flat vector.
//   - A deterministic random stream (QSGD's randomized rounding RNG).
//
// A compressor reports whichever it has; both maps/pointers may be nil.
type CodecState struct {
	// Tensors holds per-tensor state vectors: slot → tensor name → data.
	Tensors map[string]map[string][]float32
	// RNG is the compressor's random stream position, if it has one.
	RNG *fxrand.State
}

// Stateful is implemented by compressors whose internal state must survive a
// checkpoint/restore cycle for training to resume bitwise-identically.
// Stateless methods (topk, efsignsgd, ...) simply don't implement it.
//
// CodecState must return a deep copy; LoadCodecState must deep-copy its
// input, so a loaded snapshot can be handed to several lane instances.
type Stateful interface {
	Compressor
	CodecState() CodecState
	LoadCodecState(CodecState) error
}

// EngineCodecState is the engine-level merge of all codec lanes' state.
//
// Tensors are pinned to lanes (tensor i → lane i mod P), so each per-tensor
// vector lives authoritatively in exactly one lane instance; the engine
// filters out stale duplicates at capture and hands every lane the full map
// at restore (non-owned entries are never read, hence harmless). Lane RNG
// streams are positional, which makes a snapshot valid only for the same
// lane count — LoadCodecState enforces that.
type EngineCodecState struct {
	// Method is the compressor name the state belongs to.
	Method string
	// Tensors is the merged per-tensor state: slot → tensor name → data.
	Tensors map[string]map[string][]float32
	// LaneRNGs holds one RNG state per codec lane, or nil when the method
	// has no random stream.
	LaneRNGs []fxrand.State
}

// Method reports the compressor method name the engine runs. In autotuning
// mode there is no single method; the policy signature stands in, so
// checkpoints reject a resume under a differently configured policy through
// the same config check that pins fixed methods.
func (e *Engine) Method() string { return e.methodLabel(-1) }

// CodecState captures the merged compressor state across all codec lanes as
// a deep copy. For per-tensor slots, only the lane that owns a tensor
// (tensor index mod lane count, per the last Step's tensor set) contributes
// its entry; entries for tensors the engine has never exchanged are dropped
// as stale. Stateless methods yield a state with empty Tensors and nil
// LaneRNGs. Only a lane's first instance can carry state: a fixed-method
// lane has no other, and a tuning lane's candidates are stateless (admit).
func (e *Engine) CodecState() EngineCodecState {
	p := len(e.lanes)
	out := EngineCodecState{Method: e.Method()}
	for l, ln := range e.lanes {
		sf, ok := ln.comps[0].(Stateful)
		if !ok {
			continue
		}
		st := sf.CodecState()
		if st.RNG != nil {
			if out.LaneRNGs == nil {
				out.LaneRNGs = make([]fxrand.State, p)
			}
			out.LaneRNGs[l] = *st.RNG
		}
		for slot, byName := range st.Tensors {
			for i := l; i < len(e.slots); i += p {
				name := e.slots[i].q.Name
				vec, ok := byName[name]
				if !ok {
					continue
				}
				if out.Tensors == nil {
					out.Tensors = map[string]map[string][]float32{}
				}
				if out.Tensors[slot] == nil {
					out.Tensors[slot] = map[string][]float32{}
				}
				out.Tensors[slot][name] = append([]float32(nil), vec...)
			}
		}
	}
	return out
}

// LoadCodecState restores a previously captured snapshot into every codec
// lane. Each lane receives the full per-tensor map (it only ever reads the
// tensors it owns) and its own positional RNG state; the snapshot must come
// from the same method and, when RNG streams are present, the same lane
// count.
func (e *Engine) LoadCodecState(st EngineCodecState) error {
	if st.Method != "" && st.Method != e.Method() {
		return fmt.Errorf("grace: cannot load %q codec state into %q engine", st.Method, e.Method())
	}
	if st.LaneRNGs != nil && len(st.LaneRNGs) != len(e.lanes) {
		return fmt.Errorf("grace: codec state has %d lane RNG streams, engine has %d lanes; "+
			"restore with the same codec parallelism", len(st.LaneRNGs), len(e.lanes))
	}
	for l, ln := range e.lanes {
		sf, ok := ln.comps[0].(Stateful)
		if !ok {
			if len(st.Tensors) > 0 || st.LaneRNGs != nil {
				return fmt.Errorf("grace: method %q carries codec state but the engine's compressor is stateless", st.Method)
			}
			continue
		}
		cs := CodecState{Tensors: st.Tensors}
		if st.LaneRNGs != nil {
			r := st.LaneRNGs[l]
			cs.RNG = &r
		}
		if err := sf.LoadCodecState(cs); err != nil {
			return fmt.Errorf("grace: lane %d: %w", l, err)
		}
	}
	return nil
}
