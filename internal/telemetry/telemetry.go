// Package telemetry is the repro's observability layer: a low-overhead,
// race-safe instrumentation registry threaded through the hot paths of the
// exchange engine, the collective transports, the trainer, and the
// checkpointer.
//
// Three kinds of signal flow through one registry (T):
//
//   - Counters: monotonic totals (bytes on the wire, faults injected, decode
//     fallbacks, heartbeat misses, checkpoint saves). They are plain atomic
//     adds and are ALWAYS live — the cost is a few nanoseconds and zero
//     allocations, cheap enough for every hot path.
//   - Phase spans: nanosecond timings of one stage of a training step
//     (compress, encode, wire send/recv, decode, aggregate, ...). Spans feed
//     lock-free log2-bucket histograms.
//   - Events: compact op, step and incident records (a collective at the
//     transport rendezvous, an engine step, a fault, reform, heal or
//     restore) in a lock-free ring that the cross-rank plane (package xrank)
//     cuts into windows and the flight recorder freezes when a fault fires.
//
// Spans and events sit behind one gate, Enable, and one clock, Start: while
// off, Start returns the zero Time and Observe and Record* are no-ops, so
// the disabled fast path costs one atomic load and allocates nothing. The
// first Enable allocates the ring.
//
// Exporters: WritePrometheus renders the registry in Prometheus text format,
// Handler/Serve expose it at /metrics alongside net/http/pprof and an expvar
// mirror, Snapshot produces the machine-readable struct reused by the
// harness's structured run artifacts, and Tracer streams spans and events as
// a Chrome-loadable trace (chrome://tracing, https://ui.perfetto.dev).
//
// The package-level Default registry is what the framework instruments; it is
// per-process, which makes it per-rank in multi-process runs (graceworker)
// and group-wide in single-process runs (gracetrain's in-process hub), with
// spans and events keyed by rank either way.
package telemetry

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one stage of a distributed training step. Phases are the
// unit of span accounting: each gets its own latency histogram and its own
// trace-event name.
type Phase uint8

const (
	// PhaseCompensate is the error-feedback memory work: compensate the raw
	// gradient with the residual, and update the residual from the local
	// decompression after compressing.
	PhaseCompensate Phase = iota
	// PhaseCompress is the codec's Compress call.
	PhaseCompress
	// PhaseEncode is payload staging between codec and collective (allreduce
	// working copies, recovery fault masks).
	PhaseEncode
	// PhaseWireSend is one transport-level frame write (TCP ring).
	PhaseWireSend
	// PhaseWireRecv is one transport-level frame read (TCP ring).
	PhaseWireRecv
	// PhaseCollective is time a worker spends inside a collective call —
	// wire time plus waiting for peers to arrive.
	PhaseCollective
	// PhaseDecode is the codec's Decompress of collective results.
	PhaseDecode
	// PhaseAggregate is the summation/averaging of decoded gradients.
	PhaseAggregate
	// PhaseRecovery is the DecodeFallback salvage round (mask exchange plus
	// uncompressed re-exchange of poisoned tensors).
	PhaseRecovery
	// PhaseCheckpoint is a crash-consistent snapshot capture + save.
	PhaseCheckpoint
	// PhaseCompute is the model forward/backward pass.
	PhaseCompute
	// PhaseFuse is the tensor-fusion pack/split work: copying per-tensor
	// payloads into a bucket's fused buffer before its collective and
	// splitting the fused result back per tensor after it.
	PhaseFuse
)

// NumPhases is the number of defined phases (array-sizing constant).
const NumPhases = int(PhaseFuse) + 1

var phaseNames = [NumPhases]string{
	"compensate", "compress", "encode", "wire_send", "wire_recv",
	"collective", "decode", "aggregate", "recovery", "checkpoint", "compute",
	"fuse",
}

// String names the phase as exported (metric label, trace-event name).
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Counter identifies one monotonic total in the registry.
type Counter uint8

const (
	// CtrSteps counts completed Engine.Step exchanges.
	CtrSteps Counter = iota
	// CtrStepBytesSent / CtrStepBytesRecv are the step-level logical exchange
	// volume (the paper's per-worker data-volume metric, §V): compressed
	// payload bytes a worker contributes to / collects from collectives.
	CtrStepBytesSent
	CtrStepBytesRecv
	// CtrWireBytesSent / CtrWireBytesRecv are the transport-level totals:
	// every frame a transport actually puts on / takes off the wire,
	// including ring forwarding of other ranks' payloads and frame headers.
	CtrWireBytesSent
	CtrWireBytesRecv
	// CtrCollectiveOps counts collective operations entered.
	CtrCollectiveOps
	// CtrDecodeFaults / CtrDecodeFallbacks mirror the Engine's graceful-
	// degradation accounting: payloads that failed to decode, and tensors
	// re-exchanged uncompressed by the recovery round.
	CtrDecodeFaults
	CtrDecodeFallbacks
	// Fault injections by kind (comm.Faulty).
	CtrFaultDelays
	CtrFaultDrops
	CtrFaultCorruptions
	CtrFaultResets
	CtrFaultStalls
	// Liveness layer: pings written, silent intervals observed, and peers
	// declared dead (ErrPeerDead verdicts).
	CtrHeartbeatPings
	CtrHeartbeatMisses
	CtrPeerDeaths
	// Checkpointing: durable saves, bytes encoded into them, and snapshot
	// restores applied on resume.
	CtrCheckpointSaves
	CtrCheckpointBytes
	CtrCheckpointRestores
	// Tensor fusion: buckets exchanged, tensors carried by multi-tensor
	// buckets, collective rounds saved versus the unfused per-tensor
	// schedule, and the payload bytes packed into multi-tensor buckets
	// (fill ratio = CtrFusionBucketBytes / (CtrFusionBuckets × TargetBytes)).
	CtrFusionBuckets
	CtrFusionTensorsFused
	CtrFusionRoundsSaved
	CtrFusionBucketBytes
	// Autotuning: policy decision rounds evaluated, per-tensor method switches
	// applied, EF-residual flush handoffs run on switches, and union decode
	// faults folded into candidate scoring as penalty evidence.
	CtrAutotuneDecisions
	CtrAutotuneSwitches
	CtrAutotuneFlushes
	CtrAutotuneFaultObs
	// Self-healing: transient-op retries absorbed by comm.Resilient, group
	// reform rendezvous completed (generation bumps), ring re-dials that
	// succeeded under a new generation, and snapshot bytes transferred to a
	// stateless rejoiner over the collective itself.
	CtrCommRetries
	CtrGroupReforms
	CtrRingReconnects
	CtrRejoinTransferBytes
	// Elastic membership: group reforms committed at a smaller world size
	// (evicting the ranks that missed the rejoin deadline), reforms that
	// absorbed pending joiners back in, and error-feedback residual sets
	// declared lost with an evicted rank (one per live EF-tensor per shrink).
	CtrElasticShrinks
	CtrElasticGrows
	CtrElasticEFDrops

	// NumCounters is the number of defined counters.
	NumCounters
)

var counterNames = [NumCounters]string{
	"steps_total",
	"step_bytes_sent_total",
	"step_bytes_recv_total",
	"wire_bytes_sent_total",
	"wire_bytes_recv_total",
	"collective_ops_total",
	"decode_faults_total",
	"decode_fallbacks_total",
	"faults_injected_delay_total",
	"faults_injected_drop_total",
	"faults_injected_corrupt_total",
	"faults_injected_reset_total",
	"faults_injected_stall_total",
	"heartbeat_pings_total",
	"heartbeat_misses_total",
	"heartbeat_peer_deaths_total",
	"checkpoint_saves_total",
	"checkpoint_bytes_total",
	"checkpoint_restores_total",
	"fusion_buckets_total",
	"fusion_tensors_fused_total",
	"fusion_rounds_saved_total",
	"fusion_bucket_bytes_total",
	"autotune_decisions_total",
	"autotune_switches_total",
	"autotune_flushes_total",
	"autotune_fault_observations_total",
	"comm_retries_total",
	"group_reforms_total",
	"ring_reconnects_total",
	"rejoin_transfer_bytes_total",
	"elastic_shrinks_total",
	"elastic_grows_total",
	"elastic_ef_drops_total",
}

// String names the counter as exported (without the "grace_" prefix).
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return "unknown"
}

// NumStrategies sizes the per-communication-strategy byte accounting; the
// indices follow grace.Strategy (Allgather, Allreduce, Custom).
const NumStrategies = 3

var strategyNames = [NumStrategies]string{"allgather", "allreduce", "custom"}

// Trace track (tid) conventions, so every record lands on a stable, readable
// timeline row per rank: the comm driver / worker loop is track 0, codec
// lanes are 1..N, ring events get steps / collectives / faults tracks, and
// transport wire I/O gets its own high tracks.
const (
	TIDDriver   = 0
	tidSteps    = 95
	tidOps      = 96
	tidFaults   = 97
	TIDWireSend = 98
	TIDWireRecv = 99
)

// T is one telemetry registry. All methods are safe for concurrent use and
// are no-ops on a nil receiver.
type T struct {
	enabled   atomic.Bool
	counters  [NumCounters]atomic.Int64
	stratSent [NumStrategies]atomic.Int64
	stratRecv [NumStrategies]atomic.Int64
	phases    [NumPhases]Histogram
	tracer    atomic.Pointer[Tracer]

	// methodMu guards methodSteps, the per-method tensor-step occupancy fed by
	// the autotuning engine (label → tensor-steps the label was active for).
	// The label set is the tuner's candidate list plus "flush" — bounded and
	// small — so a mutex-guarded map beats predeclaring counters per method.
	methodMu    sync.Mutex
	methodSteps map[string]int64

	// gaugeMu guards gauges: last-write-wins instantaneous values (world
	// size, group generation) exported alongside the counters. The name set
	// is small and static per process, so a map keeps the registry open to
	// new gauges without another enum.
	gaugeMu sync.Mutex
	gauges  map[string]int64

	// The event ring (events.go): pos is the next position to claim, gen the
	// group generation stamped into each event.
	ring atomic.Pointer[ring]
	pos  atomic.Int64
	gen  atomic.Int64

	// Flight recorder (flight.go): the armed directory and the rate limiter.
	flightDir atomic.Pointer[string]
	lastDump  atomic.Int64
	dumps     atomic.Int64
	dumpMu    sync.Mutex
}

// Default is the process-wide registry the framework instruments. Counters
// are always live on it; span and event recording start with Enable (or the
// cmds' -telemetry-addr / -trace / -xrank flags).
var Default = New()

// New creates an empty registry with span and event recording disabled.
func New() *T { return &T{} }

// Enable turns span and event recording on or off; the first enable
// allocates the event ring, and disabling keeps it (and its events) for
// inspection. Counters are unaffected (always on).
func (t *T) Enable(on bool) {
	if t == nil {
		return
	}
	if on && t.ring.Load() == nil {
		t.ring.CompareAndSwap(nil, newRing(ringCapacity))
	}
	t.enabled.Store(on)
}

// Enabled reports whether span and event recording is on.
func (t *T) Enabled() bool { return t != nil && t.enabled.Load() }

// Add increments a counter. Always live; a few ns, zero allocations.
func (t *T) Add(c Counter, delta int64) {
	if t == nil || c >= NumCounters {
		return
	}
	t.counters[c].Add(delta)
}

// Value reads a counter.
func (t *T) Value(c Counter) int64 {
	if t == nil || c >= NumCounters {
		return 0
	}
	return t.counters[c].Load()
}

// AddStrategyBytes accounts step-level exchange volume against one
// communication strategy (index = int(grace.Strategy)).
func (t *T) AddStrategyBytes(strategy int, sent, recv int64) {
	if t == nil || strategy < 0 || strategy >= NumStrategies {
		return
	}
	t.stratSent[strategy].Add(sent)
	t.stratRecv[strategy].Add(recv)
}

// StrategyBytes reads one strategy's sent/recv totals.
func (t *T) StrategyBytes(strategy int) (sent, recv int64) {
	if t == nil || strategy < 0 || strategy >= NumStrategies {
		return 0, 0
	}
	return t.stratSent[strategy].Load(), t.stratRecv[strategy].Load()
}

// AddMethodSteps accounts tensor-step occupancy against one compression
// method label: "method m was the active choice for delta tensors this step".
// Fed by the autotuning engine; the label space stays bounded by the tuner's
// candidate set (plus "flush" for handoff steps).
func (t *T) AddMethodSteps(label string, delta int64) {
	if t == nil || delta == 0 {
		return
	}
	t.methodMu.Lock()
	if t.methodSteps == nil {
		t.methodSteps = make(map[string]int64)
	}
	t.methodSteps[label] += delta
	t.methodMu.Unlock()
}

// MethodSteps returns a copy of the per-method tensor-step occupancy map, or
// nil when nothing has been recorded.
func (t *T) MethodSteps() map[string]int64 {
	if t == nil {
		return nil
	}
	t.methodMu.Lock()
	defer t.methodMu.Unlock()
	return maps.Clone(t.methodSteps)
}

// SetGauge records an instantaneous value under name (exported as
// "grace_<name>" with gauge type). Last write wins.
func (t *T) SetGauge(name string, v int64) {
	if t == nil {
		return
	}
	t.gaugeMu.Lock()
	if t.gauges == nil {
		t.gauges = make(map[string]int64)
	}
	t.gauges[name] = v
	t.gaugeMu.Unlock()
}

// Gauges returns a copy of the gauge map, or nil when nothing has been set.
func (t *T) Gauges() map[string]int64 {
	if t == nil {
		return nil
	}
	t.gaugeMu.Lock()
	defer t.gaugeMu.Unlock()
	return maps.Clone(t.gauges)
}

// Start opens a span or a timed event: it returns time.Now when recording is
// enabled and the zero Time otherwise. Pass the result to Observe, RecordOp or
// RecordStep; a zero start makes them no-ops, so instrumented code needs no
// separate enabled check.
func (t *T) Start() time.Time {
	if t == nil || !t.enabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// Observe closes a span opened by Start: it records the elapsed time in the
// phase's histogram and emits a Chrome trace event when a Tracer is attached
// (pid = rank, tid = track, args.detail = detail); a span never opened
// records nothing. detail is typically the tensor name; it labels trace
// events only — never metric series — so cardinality stays bounded.
func (t *T) Observe(p Phase, rank, tid int, detail string, start time.Time) {
	if t == nil || start.IsZero() || int(p) >= NumPhases {
		return
	}
	d := time.Since(start)
	t.phases[p].Record(d)
	if tr := t.tracer.Load(); tr != nil {
		tr.complete(p.String(), rank, tid, start, d, detail)
	}
}

// PhaseHistogram exposes one phase's latency histogram (read-only use).
func (t *T) PhaseHistogram(p Phase) *Histogram {
	if t == nil || int(p) >= NumPhases {
		return nil
	}
	return &t.phases[p]
}

// SetTracer attaches (or, with nil, detaches) a Chrome trace writer.
// Recording must also be enabled for spans and events to flow.
func (t *T) SetTracer(tr *Tracer) {
	if t == nil {
		return
	}
	t.tracer.Store(tr)
}

// Reset zeroes everything the registry records: counters, strategy totals,
// histograms, method occupancy, gauges, the event ring and its position,
// the generation stamp, and the flight recorder's rate limit. The attached
// tracer, the enabled flag and the flight directory are left alone. Meant
// for tests and for delimiting harness sweeps; events recorded concurrently
// with a Reset may survive it.
func (t *T) Reset() {
	if t == nil {
		return
	}
	for i := range t.counters {
		t.counters[i].Store(0)
	}
	for i := 0; i < NumStrategies; i++ {
		t.stratSent[i].Store(0)
		t.stratRecv[i].Store(0)
	}
	for i := range t.phases {
		t.phases[i].Reset()
	}
	t.methodMu.Lock()
	t.methodSteps = nil
	t.methodMu.Unlock()
	t.gaugeMu.Lock()
	t.gauges = nil
	t.gaugeMu.Unlock()
	if rg := t.ring.Load(); rg != nil {
		for i := int64(0); i < rg.n; i++ {
			rg.slots[i*stride].Store(0)
		}
	}
	t.pos.Store(0)
	t.gen.Store(0)
	t.lastDump.Store(0)
	t.dumps.Store(0)
}
