package grace

import (
	"fmt"

	"repro/internal/fxrand"
)

// CodecState is a serializable snapshot of one compressor instance's private
// state (EF residuals are Memory's). It is of two kinds, both held by the
// codecs' one holder, compress/cbase.State:
//
//   - Per-tensor vectors (DGC's momentum u and accumulator v, SIGNUM's
//     momentum, PowerSGD's warm-start Q and post-compression memory), keyed
//     slot name → tensor name → flat vector.
//   - A deterministic random stream (every randomized method's RNG).
//
// A compressor reports whichever it has; both may be nil.
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
// at restore (non-owned entries are never read, hence harmless). RNG streams
// are positional, which makes a snapshot valid only for the same lane count
// and candidate list — LoadCodecState enforces that.
type EngineCodecState struct {
	// Method is the compressor name the state belongs to.
	Method string
	// Tensors is the merged per-tensor state: slot → tensor name → data.
	Tensors map[string]map[string][]float32
	// LaneRNGs holds the RNG state of every codec instance with a random
	// stream, lane-major (lane 0's candidates in order, then lane 1's, ...):
	// one per lane for a fixed randomized method, nil when there is none.
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
// as stale. LaneRNGs lists every instance's stream, a tuning lane's
// candidates too (admit keeps their vectors out). Stateless methods yield a
// state with empty Tensors and nil LaneRNGs.
func (e *Engine) CodecState() EngineCodecState {
	out := EngineCodecState{Method: e.Method()}
	for l, ln := range e.lanes {
		for _, c := range ln.comps {
			sf, ok := c.(Stateful)
			if !ok {
				continue
			}
			st := sf.CodecState()
			if st.RNG != nil {
				out.LaneRNGs = append(out.LaneRNGs, *st.RNG)
			}
			for slot, byName := range st.Tensors {
				for i := l; i < len(e.slots); i += len(e.lanes) {
					name := e.slots[i].q.Name
					if vec, ok := byName[name]; ok { // st is already a copy
						if out.Tensors == nil {
							out.Tensors = map[string]map[string][]float32{}
						}
						if out.Tensors[slot] == nil {
							out.Tensors[slot] = map[string][]float32{}
						}
						out.Tensors[slot][name] = vec
					}
				}
			}
		}
	}
	return out
}

// LoadCodecState restores a previously captured snapshot into every codec
// instance. Each receives the full per-tensor map (it only ever reads the
// tensors its lane owns) and, when it has a random stream, the next of
// LaneRNGs in CodecState's order; the snapshot must come from the same
// method and, when RNG streams are present, the same lane count.
func (e *Engine) LoadCodecState(st EngineCodecState) error {
	if st.Method != "" && st.Method != e.Method() {
		return fmt.Errorf("grace: cannot load %q codec state into %q engine", st.Method, e.Method())
	}
	rngs, stateless := st.LaneRNGs, true
	for l, ln := range e.lanes {
		for _, c := range ln.comps {
			sf, ok := c.(Stateful)
			if !ok {
				continue
			}
			stateless = false
			cs := CodecState{Tensors: st.Tensors}
			if st.LaneRNGs != nil && sf.CodecState().RNG != nil {
				if len(rngs) == 0 {
					return errLaneRNGs(st)
				}
				cs.RNG, rngs = &rngs[0], rngs[1:]
			}
			if err := sf.LoadCodecState(cs); err != nil {
				return fmt.Errorf("grace: lane %d: %w", l, err)
			}
		}
	}
	if stateless && (len(st.Tensors) > 0 || st.LaneRNGs != nil) {
		return fmt.Errorf("grace: method %q carries codec state but the engine's compressor is stateless", st.Method)
	}
	if len(rngs) > 0 {
		return errLaneRNGs(st)
	}
	return nil
}

func errLaneRNGs(st EngineCodecState) error {
	return fmt.Errorf("grace: codec state has %d lane RNG streams, not one per random codec instance of this engine; "+
		"restore with the same codec parallelism", len(st.LaneRNGs))
}
