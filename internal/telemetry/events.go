package telemetry

import (
	"sync/atomic"
	"time"
)

// Event kinds.
const (
	// KindOp is one collective operation measured at the transport
	// rendezvous: Seq is the per-handle op sequence number (lockstep —
	// identical across ranks for the same logical collective), DurNs the
	// time this rank spent inside the rendezvous, Bytes the payload size.
	KindOp = 1
	// KindStep is one engine step on one rank: Seq is the global step,
	// DurNs the wall time of Engine.Step, Aux the engine-observed exchange
	// bytes for the step.
	KindStep = 2
	// KindFault is an incident (an error surfacing, an injected fault, a
	// peer conviction, a retry, reform, heal or restore): Op says where, Seq
	// the op or engine step it is attributed to, Aux carries a fault code
	// classifying what, and Bytes the incident's subject where it has one
	// (the convicted peer's rank, the resized group's world size).
	KindFault = 3
)

// Op codes. These mirror comm's Op labels without importing comm (telemetry
// is below comm in the import graph); OpName renders them for traces.
const (
	OpAllreduce = 1
	OpAllgather = 2
	OpBroadcast = 3
	OpBarrier   = 4
	OpHeartbeat = 5
	OpReform    = 6
	OpRetry     = 7
	OpStep      = 8
	OpDial      = 9
	OpSend      = 10
	OpRecv      = 11
)

// Fault codes carried in Event.Aux for KindFault events.
const (
	FaultError    = 1 // a *comm.Error (or equivalent) surfaced
	FaultPeerDead = 2 // heartbeat conviction; Bytes is the dead peer's rank
	FaultRetry    = 3 // transient error absorbed by a retry
	FaultReform   = 4 // group reform executed
	FaultStep     = 5 // grace.StepError surfaced from the engine
	// FaultDelay..FaultStall are injections by comm.Faulty, in comm.FaultKind
	// order.
	FaultDelay   = 6
	FaultDrop    = 7
	FaultCorrupt = 8
	FaultReset   = 9
	FaultStall   = 10
	FaultHeal    = 11 // heal sync round rolled the group back to step Seq
	FaultRestore = 12 // checkpoint resume positioned the rank at step Seq
	FaultResize  = 13 // elastic membership committed world size Bytes
	FaultXRank   = 14 // the final cross-rank trace exchange failed
)

var opNames = [...]string{
	0:           "?",
	OpAllreduce: "allreduce",
	OpAllgather: "allgather",
	OpBroadcast: "broadcast",
	OpBarrier:   "barrier",
	OpHeartbeat: "heartbeat",
	OpReform:    "reform",
	OpRetry:     "retry",
	OpStep:      "step",
	OpDial:      "dial",
	OpSend:      "send",
	OpRecv:      "recv",
}

// OpName renders an op code for traces and tables; unknown codes render "?".
func OpName(op int64) string { return codeName(opNames[:], op) }

// OpCode maps a comm op label (string(comm.Op)) back to its code; unknown
// labels map to 0.
func OpCode(name string) int64 {
	for code, n := range opNames {
		if n == name {
			return int64(code)
		}
	}
	return 0
}

var faultNames = [...]string{
	0:             "?",
	FaultError:    "error",
	FaultPeerDead: "peer_dead",
	FaultRetry:    "retry",
	FaultReform:   "reform",
	FaultStep:     "step_error",
	FaultDelay:    "delay",
	FaultDrop:     "drop",
	FaultCorrupt:  "corrupt",
	FaultReset:    "reset",
	FaultStall:    "stall",
	FaultHeal:     "heal",
	FaultRestore:  "restore",
	FaultResize:   "elastic",
	FaultXRank:    "xrank_exchange",
}

// FaultName renders a fault code.
func FaultName(code int64) string { return codeName(faultNames[:], code) }

func codeName(names []string, code int64) string {
	if code < 0 || code >= int64(len(names)) || names[code] == "" {
		return "?"
	}
	return names[code]
}

// Event is the decoded form of one ring slot. All fields are plain integers
// so windows encode compactly and dumps stay grep-able.
type Event struct {
	Kind  int64 `json:"kind"`
	Rank  int64 `json:"rank"`
	Op    int64 `json:"op"`
	Seq   int64 `json:"seq"`
	Gen   int64 `json:"gen"`
	T0Ns  int64 `json:"t0_ns"`
	DurNs int64 `json:"dur_ns"`
	Aux   int64 `json:"aux"`
	Bytes int64 `json:"bytes"`
}

// Slot layout: claim word + the 9 event fields.
const stride = 10

// ringCapacity is the ring size (events) allocated on the first Enable:
// 32768 events ≈ 2.6 MB, several minutes of small-model training or a few
// seconds of a many-tensor step storm.
const ringCapacity = 32768

// ring is the event store: fixed-stride int64 slots whose leading claim word
// is parked at -1 while a writer fills the slot and set to position+1 once it
// is published. Every slot access is atomic, so a scrape racing the writers
// is race-clean and discards what it cannot validate.
type ring struct {
	slots []atomic.Int64
	n     int64
}

func newRing(n int64) *ring { return &ring{slots: make([]atomic.Int64, n*stride), n: n} }

// SetGeneration updates the group generation stamped into subsequent events.
func (t *T) SetGeneration(g uint64) {
	if t != nil {
		t.gen.Store(int64(g))
	}
}

// record claims the next ring position and publishes ev there, stamped with
// the current generation, then hands it to the attached Tracer.
func (t *T) record(ev Event) {
	rg := t.ring.Load()
	if rg == nil {
		return
	}
	ev.Gen = t.gen.Load()
	p := t.pos.Add(1) - 1
	s := rg.slots[(p%rg.n)*stride:][:stride]
	s[0].Store(-1)
	for i, v := range [...]int64{ev.Kind, ev.Rank, ev.Op, ev.Seq, ev.Gen, ev.T0Ns, ev.DurNs, ev.Aux, ev.Bytes} {
		s[1+i].Store(v)
	}
	s[0].Store(p + 1)
	if tr := t.tracer.Load(); tr != nil {
		tr.event(ev)
	}
}

// RecordOp records one collective op at the transport rendezvous. seq is the
// per-handle op sequence (lockstep-identical across ranks), bytes the payload
// size, t0 the value returned by Start (zero → no-op).
func (t *T) RecordOp(rank int, op, seq, bytes int64, t0 time.Time) {
	t.recordSince(Event{Kind: KindOp, Rank: int64(rank), Op: op, Seq: seq, Bytes: bytes}, t0)
}

// RecordStep records one completed engine step: step is the global step, t0
// the Start value at step begin (zero → no-op), exchBytes the engine's
// observed exchange volume for the step.
func (t *T) RecordStep(rank int, step, exchBytes int64, t0 time.Time) {
	t.recordSince(Event{Kind: KindStep, Rank: int64(rank), Op: OpStep, Seq: step, Aux: exchBytes}, t0)
}

// recordSince records ev as having run from t0 until now; a zero t0 (Start
// while recording was off) drops it.
func (t *T) recordSince(ev Event, t0 time.Time) {
	if t == nil || t0.IsZero() {
		return
	}
	ev.T0Ns, ev.DurNs = t0.UnixNano(), int64(time.Since(t0))
	t.record(ev)
}

// RecordFault records an incident at the current time while recording is
// enabled: code is a Fault* constant, seq the op or engine step it is
// attributed to (0 when unknown), subject the code's argument (0 when it has
// none).
func (t *T) RecordFault(rank int, op, seq, code, subject int64) {
	if !t.Enabled() {
		return
	}
	t.record(Event{Kind: KindFault, Rank: int64(rank), Op: op, Seq: seq,
		T0Ns: time.Now().UnixNano(), Aux: code, Bytes: subject})
}

// Events returns the events at ring positions since, since+1, ... in order,
// plus the position to pass back as since for the next window. Positions the
// writers have lapped are gone, so a window starts no earlier than the
// oldest live one; it ends at the first slot still being written, which the
// next window then starts with. An empty window allocates nothing. Safe to
// call concurrently with writers.
func (t *T) Events(since int64) ([]Event, int64) {
	if t == nil {
		return nil, since
	}
	rg := t.ring.Load()
	if rg == nil {
		return nil, since
	}
	hi := t.pos.Load()
	lo := max(since, hi-rg.n)
	if lo >= hi {
		return nil, since
	}
	evs := make([]Event, 0, hi-lo)
	for p := lo; p < hi; p++ {
		s := rg.slots[(p%rg.n)*stride:][:stride]
		c := s[0].Load()
		if c > p+1 {
			continue // lapped while we walked: position p is gone
		}
		if c != p+1 {
			return evs, p // claimed, not yet published
		}
		ev := Event{Kind: s[1].Load(), Rank: s[2].Load(), Op: s[3].Load(), Seq: s[4].Load(),
			Gen: s[5].Load(), T0Ns: s[6].Load(), DurNs: s[7].Load(), Aux: s[8].Load(), Bytes: s[9].Load()}
		if s[0].Load() != c {
			continue // overwritten while reading: lapped
		}
		evs = append(evs, ev)
	}
	return evs, hi
}
