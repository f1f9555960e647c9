// Package xrank is the cross-rank observability plane: a lock-free per-rank
// ring buffer of compact collective-op/step/fault events, a window collector
// that piggybacks event aggregation on the existing collective plane
// (AllgatherBytes — no extra connections), a merged Chrome-trace + per-step
// skew emitter, and a flight recorder that freezes the last N seconds of
// events to the artifacts directory when a fault fires.
//
// The package sits below internal/comm in the import graph (it imports only
// internal/telemetry and the standard library), so the communication layer
// itself can record transport-level events. That placement is load-bearing
// for straggler attribution: an injected delay sleeps *before* the inner
// collective runs, so at the engine level every rank's op duration looks the
// same (the delayed rank sleeps, its peers wait in the rendezvous). Only at
// the transport rendezvous is the asymmetry visible — the delayed rank
// arrives last and therefore waits the LEAST — so events are recorded around
// the rendezvous and the straggler for a step is the rank with the minimum
// summed collective wait (see ComputeSkew).
//
// Recording is designed for the hot path: one atomic load when disabled, and
// a handful of atomic stores into a preallocated ring when enabled — no
// locks, no allocation, no time syscalls unless enabled. Events are fixed
// stride int64 slots with a leading claim/sequence word; readers validate
// the claim before and after loading the fields and discard torn slots, so
// concurrent scrape-while-record is race-clean (all slot accesses are
// atomic) and never observes a half-written event.
package xrank

import (
	"sort"
	"sync"
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
	// KindFault is an error occurrence (injected fault surfacing, peer
	// conviction, retry, reform, step error): Op says where, Aux carries a
	// FaultCode classifying what.
	KindFault = 3
)

// Op codes. These mirror comm's Op labels without importing comm (xrank is
// below comm in the import graph); OpName renders them for traces.
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
	FaultPeerDead = 2 // heartbeat conviction
	FaultRetry    = 3 // transient error absorbed by a retry
	FaultReform   = 4 // group reform executed
	FaultStep     = 5 // grace.StepError surfaced from the engine
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
func OpName(op int64) string {
	if op < 0 || op >= int64(len(opNames)) || opNames[op] == "" {
		return "?"
	}
	return opNames[op]
}

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
}

// FaultName renders a fault code.
func FaultName(code int64) string {
	if code < 0 || code >= int64(len(faultNames)) || faultNames[code] == "" {
		return "?"
	}
	return faultNames[code]
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

// DefaultCapacity is the ring size (events) allocated on first enable when
// SetCapacity was not called: 32768 events ≈ 2.6 MB, several minutes of
// small-model training or a few seconds of a many-tensor step storm.
const DefaultCapacity = 32768

type ring struct {
	slots []atomic.Int64
	n     int64
}

// Recorder owns one process's event ring plus the flight-recorder state.
// In-process multi-rank runs (the hub) share one Recorder — events carry
// their rank — while multi-process runs have one per process; the collector
// merges either shape identically.
type Recorder struct {
	enabled atomic.Bool
	gen     atomic.Int64
	pos     atomic.Int64
	ring    atomic.Pointer[ring]

	mu  sync.Mutex // guards ring allocation and capacity changes
	cap int64

	// Flight recorder configuration + rate limiting (see flight.go).
	flightDir atomic.Pointer[string]
	windowNs  atomic.Int64
	lastDump  atomic.Int64
	dumps     atomic.Int64
	maxDumps  atomic.Int64
	dumpMu    sync.Mutex
}

// Default is the process-global recorder, mirroring telemetry.Default.
var Default = NewRecorder()

// NewRecorder returns a disabled recorder with default capacity.
func NewRecorder() *Recorder {
	r := &Recorder{cap: DefaultCapacity}
	r.windowNs.Store(int64(10 * time.Second))
	r.maxDumps.Store(32)
	return r
}

// SetCapacity sizes the ring (events). Takes effect on the next enable; a
// live ring is replaced immediately (existing events are dropped). n < 1
// resets to DefaultCapacity.
func (r *Recorder) SetCapacity(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n < 1 {
		n = DefaultCapacity
	}
	r.cap = int64(n)
	if r.ring.Load() != nil {
		r.ring.Store(&ring{slots: make([]atomic.Int64, int64(n)*stride), n: int64(n)})
	}
}

// SetEnabled turns event recording on or off. The first enable allocates the
// ring; disabling keeps it (and its events) for inspection.
func (r *Recorder) SetEnabled(on bool) {
	if on {
		r.mu.Lock()
		if r.ring.Load() == nil {
			r.ring.Store(&ring{slots: make([]atomic.Int64, r.cap*stride), n: r.cap})
		}
		r.mu.Unlock()
	}
	r.enabled.Store(on)
}

// Enabled reports whether recording is on. This is the single hot-path gate:
// call sites skip timestamping entirely when it is false.
func (r *Recorder) Enabled() bool { return r.enabled.Load() }

// Start returns the current time in unix nanoseconds, or 0 when recording is
// disabled. Record* treat a zero t0 as "disabled at span start" and do
// nothing, so the disabled path costs one atomic load and no time syscall.
func (r *Recorder) Start() int64 {
	if !r.enabled.Load() {
		return 0
	}
	return time.Now().UnixNano()
}

// SetGeneration updates the group generation stamped into subsequent events.
func (r *Recorder) SetGeneration(g uint64) { r.gen.Store(int64(g)) }

// Generation returns the current stamped generation.
func (r *Recorder) Generation() int64 { return r.gen.Load() }

// record claims the next slot and publishes the event. The claim word is
// first parked at -1 (torn marker), then set to pos+1 once every field is
// stored; readers that see a claim change mid-read discard the slot.
func (r *Recorder) record(kind, rank, op, seq, t0, dur, aux, bytes int64) {
	rg := r.ring.Load()
	if rg == nil {
		return
	}
	p := r.pos.Add(1) - 1
	base := (p % rg.n) * stride
	s := rg.slots[base : base+stride]
	s[0].Store(-1)
	s[1].Store(kind)
	s[2].Store(rank)
	s[3].Store(op)
	s[4].Store(seq)
	s[5].Store(r.gen.Load())
	s[6].Store(t0)
	s[7].Store(dur)
	s[8].Store(aux)
	s[9].Store(bytes)
	s[0].Store(p + 1)
}

// RecordOp records one collective op at the transport rendezvous. seq is the
// per-handle op sequence (lockstep-identical across ranks), bytes the payload
// size, t0 the value returned by Start (0 → no-op).
func (r *Recorder) RecordOp(rank int, op int64, seq int64, bytes int64, t0 int64) {
	if t0 == 0 || !r.enabled.Load() {
		return
	}
	r.record(KindOp, int64(rank), op, seq, t0, time.Now().UnixNano()-t0, 0, bytes)
}

// RecordStep records one completed engine step: step is the global step,
// t0 the Start value at step begin (0 → no-op), exchBytes the engine's
// observed exchange volume for the step.
func (r *Recorder) RecordStep(rank int, step int64, exchBytes int64, t0 int64) {
	if t0 == 0 || !r.enabled.Load() {
		return
	}
	r.record(KindStep, int64(rank), OpStep, step, t0, time.Now().UnixNano()-t0, exchBytes, 0)
}

// RecordFault records a fault occurrence at the current time. seq carries the
// op step / engine step the fault is attributed to (0 when unknown).
func (r *Recorder) RecordFault(rank int, op int64, seq int64, code int64) {
	if !r.enabled.Load() {
		return
	}
	r.record(KindFault, int64(rank), op, seq, time.Now().UnixNano(), 0, code, 0)
}

// Events returns all valid events with ring position > since, ordered by
// position, plus the maximum position seen (pass it back as since to cut
// consecutive windows). Torn or overwritten slots are skipped. Safe to call
// concurrently with writers.
func (r *Recorder) Events(since int64) ([]Event, int64) {
	rg := r.ring.Load()
	if rg == nil {
		return nil, since
	}
	tmp := make([]posEvent, 0, rg.n)
	maxPos := since
	for i := int64(0); i < rg.n; i++ {
		s := rg.slots[i*stride : i*stride+stride]
		c1 := s[0].Load()
		if c1 <= 0 {
			continue
		}
		ev := Event{
			Kind:  s[1].Load(),
			Rank:  s[2].Load(),
			Op:    s[3].Load(),
			Seq:   s[4].Load(),
			Gen:   s[5].Load(),
			T0Ns:  s[6].Load(),
			DurNs: s[7].Load(),
			Aux:   s[8].Load(),
			Bytes: s[9].Load(),
		}
		if s[0].Load() != c1 {
			continue // torn: overwritten while reading
		}
		if c1 <= since {
			continue
		}
		if c1 > maxPos {
			maxPos = c1
		}
		tmp = append(tmp, posEvent{c1, ev})
	}
	sortPosEvents(tmp)
	evs := make([]Event, len(tmp))
	for i, pe := range tmp {
		evs[i] = pe.ev
	}
	return evs, maxPos
}

type posEvent struct {
	pos int64
	ev  Event
}

// sortPosEvents orders a ring scan by position.
func sortPosEvents(s []posEvent) {
	sort.Slice(s, func(i, j int) bool { return s[i].pos < s[j].pos })
}

// Reset drops all events, the position counter, and the generation stamp.
// Test helper; not for use while writers are active.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rg := r.ring.Load(); rg != nil {
		r.ring.Store(&ring{slots: make([]atomic.Int64, rg.n*stride), n: rg.n})
	}
	r.pos.Store(0)
	r.gen.Store(0)
	r.lastDump.Store(0)
	r.dumps.Store(0)
}
