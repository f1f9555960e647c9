package grace

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Engine is the per-worker, step-scoped exchange orchestrator: it accepts
// the full set of named layer gradients of one training step and runs the
// per-tensor exchange of Algorithm 1 over all of them with codec compute
// overlapping wire time — while tensor i sits in its collective, tensors
// i+1, i+2, ... are already being compressed.
//
// Architecture: codec work (compensate, compress, local decompress, decode,
// aggregate) runs on a bounded pool of "lanes" (GOMAXPROCS-aware,
// EngineConfig.Parallelism). Tensor i is pinned to lane i mod P for the
// engine's lifetime, so per-tensor compressor state (momentum, low-rank warm
// starts, error residuals) always lives in one instance even though lanes
// run concurrently. All collective calls are funneled through the Step
// caller's goroutine in ascending tensor order, honoring comm.Collective's
// lockstep contract: every worker issues the identical operation sequence,
// and no Collective handle is ever used concurrently.
//
// Every buffer the exchange needs belongs to the Engine and persists across
// steps (each tensor's slot, the per-bucket allreduce buffers, each lane's
// decode scratch), so a steady-state Step performs near-zero framework
// allocation.
//
// An Engine belongs to one worker; Step must not be called concurrently.
// The returned gradients and report are valid until the next Step call.
type Engine struct {
	coll     comm.Collective
	mem      *Memory
	lanes    []*engineLane
	n        float32 // worker count
	rank     int
	fallback bool // DecodeFallback: recover decode failures via raw resend
	fusion   FusionConfig

	// drv is the comm driver's telemetry scope.
	drv telScope

	// ready carries tensor indices from lanes to the comm driver as their
	// payloads become available; buffered to len(infos) so lanes never block.
	ready chan int

	// slots holds one record per tensor of the current tensor set, reused
	// across steps while tensor shapes are stable. out is what Step returns:
	// each tensor's aggregated gradient, in input order. stepNum counts
	// completed Steps (lockstep, so identical across ranks — the correlation
	// key for xrank step events).
	slots   []tensorSlot
	out     [][]float32
	rep     StepReport
	stepNum int64

	// Exchange units. buckets is the step's bucket plan (contiguous tensor
	// ranges, identical on every rank; one tensor each when fusion is off).
	// bucketBuf holds one allreduce working buffer per bucket, kept across
	// steps: the bucket's dense payloads are packed into it, summed in place,
	// and handed to the decoding lanes as subslices. parts is the driver's
	// scratch for one bucket's byte payloads on the way out and one rank's
	// split frame on the way back.
	buckets   []Bucket
	bucketBuf [][]float32
	parts     [][]byte

	// Autotuning state (nil/empty when the engine runs a fixed method).
	// assign is the tuner's per-tensor plan for the current step; obs is the
	// per-tensor observation buffer fed back after it; occup counts tensors
	// per candidate (plus one trailing flush slot) for the occupancy
	// telemetry, reused every step.
	tuner  Tuner
	cands  []TunerCandidate
	assign []TunerAssign
	obs    []TunerObs
	occup  []int64

	errMu    sync.Mutex
	firstErr error

	// inStep/paused implement the heal-path quiesce guard: Step owns inStep
	// for its duration, Pause refuses while a step is in flight, and a paused
	// engine rejects Step. Step joins every codec lane before returning (even
	// on error), so a successful Pause guarantees no engine goroutine is
	// touching codec or memory state while a snapshot is being applied.
	inStep atomic.Bool
	paused atomic.Bool
}

// engineLane is one codec worker: its compressor instances with their probed
// capabilities, and a decode-task queue fed by the comm driver. comps is the
// lane's candidate list: the one instance of a fixed-method engine, or one
// instance per Tuner candidate followed by the flush codec in autotuning
// mode; tensors stay pinned to lanes either way.
type engineLane struct {
	comps   []Compressor
	caps    []Caps
	dec     chan int // tensor indices to decode; -1 ends the step
	scratch []float32
	pay     Payload // the header every decode reads its input through

	ts telScope // this lane's telemetry scope
}

// decode is the Engine's one decompression call, for candidate c of the
// lane, reading pay through the lane's header: a codec with DecompressInto
// writes into dst[:info.Size()] (a fresh slice when dst is nil), any other
// returns its own slice from Decompress. Either way the result must hold
// exactly info.Size() elements — a short decode fails the tensor here, not by
// indexing past the EF approximation or shortening the optimizer's gradient.
func (ln *engineLane) decode(c int, pay Payload, info TensorInfo, dst []float32) (out []float32, err error) {
	size := info.Size()
	ln.pay = pay
	if into := ln.caps[c].Into; into == nil {
		out, err = ln.comps[c].Decompress(&ln.pay, info)
	} else {
		if dst == nil {
			dst = make([]float32, size)
		}
		out = dst[:size]
		err = into.DecompressInto(&ln.pay, info, out)
	}
	if err != nil {
		return nil, err
	}
	if len(out) != size {
		return nil, fmt.Errorf("decompressed %d elements, want %d", len(out), size)
	}
	return out, nil
}

// tensorSlot is everything the Engine keeps for one tensor. Its lane writes
// the codec side (vec, pay, failed), the comm driver the wire side (have,
// summed, views) and the recovery round fellback; the driver hands a tensor
// to its lane only after the tensor's collective completed, so no field is
// written by two goroutines at once.
type tensorSlot struct {
	// q is the tensor's identity (Tensor, Name, Params) and its quality
	// totals for the lifetime of the tensor set (Steps, SentBytes, Faults,
	// Fallbacks, EFDrops); QualityReport fills in the derived fields.
	q TensorQuality

	comp  []float32 // compensated gradient (mem != nil)
	views [][]byte  // allgather results awaiting decode: every rank's payload
	gsz   []int     // GatherSizes backing store

	// Step state, reset by ensure. fellback marks a union-recovered tensor:
	// it derives from recoverStep's union bitmask, so it is rank-identical
	// and safe as a tuner observation.
	vec      []float32 // what went into the codec: comp or the raw gradient
	pay      *Payload
	summed   []float32 // allreduce result: a subslice of the bucket's buffer
	have     bool      // payload ready (driver-side arrival tracking)
	failed   bool      // recoverable decode failure (DecodeFallback)
	fellback bool
}

// EngineConfig configures a per-worker Engine; the EngineOptions fill it in.
type EngineConfig struct {
	// Coll is this worker's collective handle. The Engine serializes every
	// collective call on the Step caller's goroutine.
	Coll comm.Collective
	// New constructs one compressor instance per codec lane. Instances must
	// be configured identically (same method, same options); per-tensor
	// state stays consistent because tensors are pinned to lanes. Required
	// unless Tuner is set.
	New func() (Compressor, error)
	// Mem is the optional framework error-feedback memory (Eq. 4).
	Mem *Memory
	// Parallelism bounds the codec lane count; 0 selects GOMAXPROCS.
	Parallelism int
	// DecodeFallback enables graceful degradation for decode failures: when a
	// payload fails to decompress or aggregate (e.g. corrupted on the wire),
	// the step is not poisoned. Instead, after the normal exchange, workers
	// allgather a small per-tensor failure bitmask, take its union, and
	// re-exchange every affected tensor uncompressed — the NoneCompressor
	// path: one AllreduceF32 of the compensated gradient, averaged — so a
	// corrupt payload costs one step of compression savings instead of the
	// run. The flag must be set identically on every worker (it changes the
	// collective sequence); transport and compress errors remain fatal.
	DecodeFallback bool
	// Fusion sets the tensor-fusion batching policy (see FusionConfig). The
	// zero value disables fusion, reproducing the per-tensor collective
	// schedule exactly. Like DecodeFallback, it must be set identically on
	// every worker — the bucket plan is part of the collective sequence.
	Fusion FusionConfig
	// Tuner, when set, puts the engine in autotuning mode: every lane holds
	// one compressor instance per Tuner candidate, each tensor's method is
	// chosen per step by the policy, and the engine feeds rank-identical
	// exchange observations back after every step (see Tuner). New is then
	// ignored. Mutually exclusive with Fusion (a mixed-method step has
	// no single-strategy buckets to fuse); candidates must keep no
	// per-tensor codec state and must not use the Custom strategy. Every
	// worker must run an identically configured Tuner — the policy
	// trajectory is part of the collective sequence.
	Tuner Tuner
}

// StepStats reports what one tensor's exchange did, for volume accounting and
// modeled communication time.
type StepStats struct {
	Strategy Strategy
	// SentBytes is this worker's wire payload (the paper's data-volume
	// metric).
	SentBytes int
	// RecvBytes is the peer payload volume this worker collected for the
	// tensor: the reduced vector for Allreduce (full width), the n-1 peer
	// payloads for Allgather — which is where sparsifiers' true wire cost
	// hides at scale — and, for Custom strategies that do not report their
	// own receive volume, a SentBytes mirror (symmetric-exchange assumption).
	RecvBytes int
	// GatherSizes holds every worker's payload size for Allgather exchanges
	// (nil otherwise); simnet's allgather cost model consumes it.
	GatherSizes []int
	// CodecTime is the measured compress+decompress+memory time, excluding
	// time spent blocked in the collective.
	CodecTime time.Duration
}

// StrategyStats is the per-strategy slice of a step's exchange volume.
type StrategyStats struct {
	// Tensors is how many tensors used the strategy this step.
	Tensors int
	// SentBytes is the wire volume those tensors cost this worker.
	SentBytes int
	// RecvBytes is the peer payload volume those tensors delivered to this
	// worker (see StepStats.RecvBytes for per-strategy semantics).
	RecvBytes int
}

// StepReport aggregates one Engine.Step: per-tensor stats (same semantics as
// Pipeline.Exchange's StepStats, consumed by simnet cost models) plus merged
// totals. The report is owned by the Engine and valid until the next Step.
type StepReport struct {
	// Tensors holds one StepStats per input tensor, in input order.
	Tensors []StepStats
	// SentBytes is this worker's total wire volume for the step.
	SentBytes int
	// RecvBytes is this worker's total received peer payload volume for the
	// step (the mirror of SentBytes; see StepStats.RecvBytes).
	RecvBytes int
	// CodecTime sums measured compress/decompress/memory time across all
	// tensors (lane time, not wall time — lanes run concurrently).
	CodecTime time.Duration
	// WallTime is the measured wall-clock duration of the whole Step,
	// including time blocked in collectives; WallTime < CodecTime +
	// collective wait indicates overlap is working.
	WallTime time.Duration
	// ByStrategy breaks the step down per communication strategy, indexed
	// by Strategy (Allgather, Allreduce, Custom).
	ByStrategy [3]StrategyStats
	// Faults counts tensors whose payloads failed to decode on this worker
	// this step (only populated under EngineConfig.DecodeFallback; without
	// it the first such failure is fatal).
	Faults int
	// Fallbacks counts tensors re-exchanged uncompressed by the recovery
	// round — the union of all workers' faults, so it is identical on every
	// rank and ≥ this worker's own Faults.
	Fallbacks int
	// Rounds counts the exchange collective rounds this step issued: one per
	// bucket (recovery-round collectives are excluded). Without fusion this
	// equals Tensors' length; with fusion it is the figure the paper's
	// per-tensor-overhead critique cares about.
	Rounds int
	// FusedBuckets / FusedTensors count the multi-tensor buckets issued and
	// the tensors they carried; FusedBytes is the payload volume packed into
	// them (fill-ratio numerator).
	FusedBuckets int
	FusedTensors int
	FusedBytes   int
	// FusionOverheadBytes is the framing overhead fused allgather rounds
	// added to this worker's sent volume (already folded into SentBytes).
	FusionOverheadBytes int
	// Buckets is the step's bucket plan as [Lo,Hi) tensor index ranges —
	// identical on every rank — so cost models can charge wire time per
	// collective round instead of per tensor. Owned by the Engine; valid
	// until the next Step.
	Buckets []Bucket
	// Switches counts tensors whose compression method changed at this
	// step's start (autotuning mode; identical on every rank).
	Switches int
	// Flushes counts tensors that ran the EF flush handoff this step.
	Flushes int
	// PolicyByTensor labels each tensor's active candidate this step
	// (autotuning mode; nil otherwise). Owned by the Engine; valid until the
	// next Step.
	PolicyByTensor []string
}

// NewEngine builds an Engine from functional options (see EngineOption).
// Every lane holds the same candidate list — one compressor for a
// fixed method, one per Tuner candidate plus the flush codec when autotuning,
// so a tensor can run any candidate while staying pinned to its lane — and
// admit applies the mode's rules to it.
func NewEngine(opts ...EngineOption) (*Engine, error) {
	var cfg EngineConfig
	for _, opt := range opts {
		opt.applyEngine(&cfg)
	}
	if cfg.Coll == nil {
		return nil, fmt.Errorf("grace: engine needs a collective")
	}
	if err := cfg.Fusion.validate(); err != nil {
		return nil, err
	}
	p := cfg.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	e := &Engine{coll: cfg.Coll, mem: cfg.Mem, n: float32(cfg.Coll.Size()),
		rank: cfg.Coll.Rank(), fallback: cfg.DecodeFallback, fusion: cfg.Fusion, tuner: cfg.Tuner}
	e.drv = telScope{rank: e.rank, tid: telemetry.TIDDriver}
	var candidates func() ([]Compressor, error) // builds one lane's list
	switch {
	case cfg.Tuner != nil:
		e.cands = cfg.Tuner.Candidates()
		e.occup = make([]int64, len(e.cands)+1)
		candidates = func() ([]Compressor, error) {
			comps := make([]Compressor, 0, len(e.cands)+1)
			for ci, cand := range e.cands {
				c, err := New(cand.Method, cand.Opts)
				if err != nil {
					return nil, fmt.Errorf("autotune candidate %d (%s): %w", ci, cand.Label, err)
				}
				comps = append(comps, c)
			}
			return append(comps, flushCodec{}), nil
		}
	case cfg.New != nil:
		candidates = func() ([]Compressor, error) {
			c, err := cfg.New()
			return []Compressor{c}, err
		}
	default:
		return nil, fmt.Errorf("grace: engine needs a compressor factory (New) or a tuner")
	}
	for l := 0; l < p; l++ {
		comps, err := candidates()
		if err != nil {
			return nil, fmt.Errorf("grace: engine lane %d: %w", l, err)
		}
		ln := &engineLane{comps: comps}
		for _, c := range comps {
			ln.caps = append(ln.caps, Capabilities(c))
		}
		ln.ts = telScope{rank: e.rank, tid: 1 + l}
		e.lanes = append(e.lanes, ln)
	}
	if err := e.admit(); err != nil {
		return nil, err
	}
	return e, nil
}

// admit applies the construction rules that depend on the mode. A
// fixed-method engine needs its lanes to agree on method name and strategy,
// and a Custom-strategy method to implement CustomComm. A tuning engine
// rejects fusion (a mixed-method step has no single-strategy buckets) and
// candidates with per-tensor codec state or the Custom strategy — a tensor's
// vectors would go stale in a candidate while it runs another, and a Custom
// method owns its collective sequence. Random streams are fine: CodecState
// lists every candidate's.
func (e *Engine) admit() error {
	first := e.lanes[0]
	if e.tuner == nil {
		c0 := first.comps[0]
		for l, ln := range e.lanes {
			c, caps := ln.comps[0], ln.caps[0]
			if c.Name() != c0.Name() || c.Strategy() != c0.Strategy() {
				return fmt.Errorf("grace: engine lanes disagree: lane 0 is %s/%v, lane %d is %s/%v",
					c0.Name(), c0.Strategy(), l, c.Name(), c.Strategy())
			}
			if caps.Strategy == Custom && caps.Custom == nil {
				return fmt.Errorf("grace: %s declares Custom strategy but lacks CustomComm", c.Name())
			}
		}
		return nil
	}
	if e.fusion.Enabled() {
		return fmt.Errorf("grace: autotuning and tensor fusion are mutually exclusive")
	}
	if len(e.cands) == 0 {
		return fmt.Errorf("grace: autotune policy has no candidates")
	}
	for ci, cand := range e.cands {
		if sf, ok := first.comps[ci].(Stateful); ok && sf.CodecState().Tensors != nil {
			return fmt.Errorf("grace: autotune candidate %q: method %s keeps per-tensor codec state; "+
				"only methods without it (a random stream is fine) can be autotuned", cand.Label, cand.Method)
		}
		if first.caps[ci].Strategy == Custom {
			return fmt.Errorf("grace: autotune candidate %q: Custom-strategy methods cannot be autotuned", cand.Label)
		}
	}
	return nil
}

// cand is the position, in every lane's candidate list, of the codec tensor
// i runs this step: the only one in fixed-method mode; in autotuning mode the
// tensor's assigned candidate, or the flush codec that follows the candidates
// when the tensor runs the EF flush handoff.
func (e *Engine) cand(i int) int {
	switch {
	case e.tuner == nil:
		return 0
	case e.isFlush(i):
		return len(e.cands)
	}
	return e.assign[i].Cand
}

// isFlush reports whether tensor i runs the EF flush handoff this step: the
// compensated gradient travels exactly once uncompressed (dense allreduce)
// and the residual becomes exactly zero. Without error-feedback memory there
// is no residual to hand off, so the flag is ignored.
func (e *Engine) isFlush(i int) bool {
	return e.tuner != nil && e.mem != nil && e.assign[i].Flush
}

// Lanes reports the codec lane count.
func (e *Engine) Lanes() int { return len(e.lanes) }

// Fusion reports the engine's tensor-fusion policy.
func (e *Engine) Fusion() FusionConfig { return e.fusion }

// Pause quiesces the engine at a step boundary for state surgery (the
// self-healing trainer applies a checkpoint snapshot between steps). It fails
// if a Step is in flight — the trainer drives Step and Pause from the same
// goroutine, so that indicates a concurrency bug, not a race to win. While
// paused, Step refuses to run. Because Step joins all codec lanes before
// returning (even on the error paths), a paused engine has no concurrent
// owner of codec, memory, or tuner state.
func (e *Engine) Pause() error {
	if e.inStep.Load() {
		return fmt.Errorf("grace: engine Pause with a Step in flight")
	}
	e.paused.Store(true)
	return nil
}

// Resume lifts a Pause; the next Step runs normally. Resuming a never-paused
// engine is a no-op.
func (e *Engine) Resume() { e.paused.Store(false) }

// Rebind re-derives the engine's group-shaped state from the collective after
// an elastic membership change: the averaging denominator, this worker's rank,
// and the per-tensor gather fan-in all take the collective's current Size()
// and Rank(). lost is how many ranks the change evicted (0 for a grow); when
// the engine runs with error-feedback memory, each evicted rank's residual set
// is declared lost — recorded per tensor in the quality accumulators and in
// the elastic_ef_drops_total counter, never silently dropped. A tuning engine
// forwards the new size to its policy, which must implement WorldSizeSetter.
//
// The engine must be paused (the heal path's quiesce guard): Rebind swaps
// state the codec lanes index by group size.
func (e *Engine) Rebind(lost int) error {
	if !e.paused.Load() {
		return fmt.Errorf("grace: Rebind needs a paused engine")
	}
	n := e.coll.Size()
	if n < 1 {
		return fmt.Errorf("grace: Rebind with collective size %d", n)
	}
	e.n = float32(n)
	e.rank = e.coll.Rank()
	e.drv.rank = e.rank
	for _, ln := range e.lanes {
		ln.ts.rank = e.rank
	}
	for i := range e.slots {
		if s := &e.slots[i]; len(s.gsz) != n {
			s.gsz, s.views = make([]int, n), make([][]byte, n)
		}
	}
	if e.mem != nil && lost > 0 {
		for i := range e.slots {
			e.slots[i].q.EFDrops += int64(lost)
		}
		telemetry.Default.Add(telemetry.CtrElasticEFDrops, int64(lost)*int64(len(e.slots)))
	}
	if e.tuner != nil {
		ws, ok := e.tuner.(WorldSizeSetter)
		if !ok {
			return fmt.Errorf("grace: elastic resize needs a tuner implementing WorldSizeSetter; %T does not", e.tuner)
		}
		ws.SetWorldSize(n)
	}
	return nil
}

// Step exchanges one training step's gradients: grads[i] is the gradient of
// the tensor described by infos[i]. It returns the aggregated gradients in
// input order plus the merged step report; both are valid until the next
// Step. The tensor list should be stable across steps (same names, same
// order) — that is what keeps per-tensor codec state and buffer reuse
// coherent, and what guarantees every worker issues the same collective
// sequence.
//
// Failures surface as a structured *StepError pinning the tensor and phase,
// with the underlying cause (including any typed *comm.Error) reachable via
// errors.Is/As. On error the collective group must be considered poisoned,
// exactly as with Pipeline.Exchange: peers blocked in a collective this
// worker never entered will not recover (substrates with group abort — the
// in-process Hub — fail those peers with comm.ErrAborted instead of hanging).
// With EngineConfig.DecodeFallback, decode failures are downgraded from fatal
// to a per-tensor recovery: see the config field for the protocol.
func (e *Engine) Step(grads [][]float32, infos []TensorInfo) ([][]float32, *StepReport, error) {
	start := time.Now()
	stepT0 := telemetry.Default.Start()
	if e.paused.Load() {
		return nil, nil, fmt.Errorf("grace: engine is paused (heal in progress)")
	}
	e.inStep.Store(true)
	defer e.inStep.Store(false)
	if len(grads) != len(infos) {
		return nil, nil, fmt.Errorf("grace: engine got %d gradients for %d tensor infos", len(grads), len(infos))
	}
	m := len(infos)
	for i := range grads {
		if len(grads[i]) != infos[i].Size() {
			return nil, nil, fmt.Errorf("grace: engine tensor %d (%s): gradient has %d elements, info says %d",
				i, infos[i].Name, len(grads[i]), infos[i].Size())
		}
	}
	if err := e.ensure(infos); err != nil {
		return nil, nil, err
	}
	if m == 0 {
		e.rep.WallTime = time.Since(start)
		return e.out, &e.rep, nil
	}
	if e.tuner != nil {
		e.planStep()
	}

	p := len(e.lanes)
	var wg sync.WaitGroup
	for l := 0; l < p; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			ln := e.lanes[l]
			// Compress phase: this lane's tensors in ascending order, so the
			// comm driver (which consumes in global ascending order) is fed
			// as early as possible.
			for i := l; i < m; i += p {
				e.compressOne(ln, i, grads[i], infos[i])
			}
			// Decode phase: aggregate results the driver hands back as each
			// tensor's collective completes, overlapping with collectives
			// still in flight.
			for i := range ln.dec {
				if i < 0 {
					return
				}
				e.decodeOne(ln, i, infos[i])
			}
		}(l)
	}

	// Comm driver: issue each bucket's collective in ascending order as soon
	// as every payload in it is ready (unfused runs have one tensor per
	// bucket, so this degenerates to the per-tensor schedule). This is the
	// only goroutine touching e.coll.
	next, nb := 0, 0
driver:
	for nb < len(e.buckets) {
		i := <-e.ready
		e.slots[i].have = true
		for next < m && e.slots[next].have {
			next++
		}
		for nb < len(e.buckets) && e.buckets[nb].Hi <= next {
			if e.err() != nil {
				break driver
			}
			if err := e.issueBucket(nb, infos); err != nil {
				e.setErr(err)
				break driver
			}
			nb++
		}
	}

	for _, ln := range e.lanes {
		ln.dec <- -1
	}
	wg.Wait()
	// On abort some ready signals may be unconsumed; drain so the next step
	// starts clean.
	for len(e.ready) > 0 {
		<-e.ready
	}
	if err := e.err(); err != nil {
		return nil, nil, e.noteStepError(err)
	}
	if e.fallback {
		if err := e.recoverStep(infos); err != nil {
			return nil, nil, e.noteStepError(err)
		}
	}

	e.stepNum++
	for i := range e.rep.Tensors {
		st, q := &e.rep.Tensors[i], &e.slots[i].q
		q.SentBytes += int64(st.SentBytes)
		q.Steps++
		e.rep.SentBytes += st.SentBytes
		e.rep.RecvBytes += st.RecvBytes
		e.rep.CodecTime += st.CodecTime
		bs := &e.rep.ByStrategy[st.Strategy]
		bs.Tensors++
		bs.SentBytes += st.SentBytes
		bs.RecvBytes += st.RecvBytes
	}
	if e.fallback {
		// The recovery round's failure bitmask is wire volume too.
		e.rep.SentBytes += (m + 7) / 8
	}
	// Fused-allgather framing overhead is wire volume the per-tensor stats
	// don't see (sent side; the receive side is accounted as it arrives).
	e.rep.SentBytes += e.rep.FusionOverheadBytes
	e.rep.WallTime = time.Since(start)

	// Feed the always-on registry counters.
	tel := telemetry.Default
	tel.Add(telemetry.CtrSteps, 1)
	tel.Add(telemetry.CtrStepBytesSent, int64(e.rep.SentBytes))
	tel.Add(telemetry.CtrStepBytesRecv, int64(e.rep.RecvBytes))
	tel.Add(telemetry.CtrDecodeFaults, int64(e.rep.Faults))
	tel.Add(telemetry.CtrDecodeFallbacks, int64(e.rep.Fallbacks))
	if e.rep.FusedBuckets > 0 {
		tel.Add(telemetry.CtrFusionBuckets, int64(e.rep.FusedBuckets))
		tel.Add(telemetry.CtrFusionTensorsFused, int64(e.rep.FusedTensors))
		tel.Add(telemetry.CtrFusionRoundsSaved, int64(m-e.rep.Rounds))
		tel.Add(telemetry.CtrFusionBucketBytes, int64(e.rep.FusedBytes))
	}
	for s, bs := range e.rep.ByStrategy {
		if bs.Tensors > 0 {
			tel.AddStrategyBytes(s, int64(bs.SentBytes), int64(bs.RecvBytes))
		}
	}
	if e.tuner != nil {
		e.observeStep()
	}
	telemetry.Default.RecordStep(e.rank, e.stepNum, int64(e.rep.SentBytes), stepT0)
	return e.out, &e.rep, nil
}

// noteStepError records a step-level fault event and arms a flight-recorder
// dump before the error escapes Step. Comm-layer failures already recorded
// their own event at the failing op's coordinates (see comm's wrapErr); this
// one marks the step boundary the failure surfaced at — carrying the failing
// op when a comm.Error is in the chain — so a merged trace shows both.
func (e *Engine) noteStepError(err error) error {
	op := int64(telemetry.OpStep)
	var ce *comm.Error
	if errors.As(err, &ce) {
		op = telemetry.OpCode(string(ce.Op))
	}
	telemetry.Default.RecordFault(e.rank, op, e.stepNum+1, telemetry.FaultStep, 0)
	telemetry.Default.Flight("step_error", err)
	return err
}

// planStep pulls the step's per-tensor assignment from the policy and
// publishes it into the report (labels, switch count) and the occupancy
// telemetry. Runs before the lanes start, on the Step caller's goroutine.
func (e *Engine) planStep() {
	e.rep.Switches = e.tuner.Plan(e.assign)
	for i := range e.occup {
		e.occup[i] = 0
	}
	flushSlot := len(e.cands)
	for i := range e.assign {
		a := e.assign[i]
		e.rep.PolicyByTensor[i] = e.cands[a.Cand].Label
		if e.isFlush(i) {
			e.rep.Flushes++
			e.occup[flushSlot]++
		} else {
			e.occup[a.Cand]++
		}
	}
	tel := telemetry.Default
	tel.Add(telemetry.CtrAutotuneSwitches, int64(e.rep.Switches))
	tel.Add(telemetry.CtrAutotuneFlushes, int64(e.rep.Flushes))
	for c, n := range e.occup[:flushSlot] {
		if n > 0 {
			tel.AddMethodSteps(e.cands[c].Label, n)
		}
	}
	if e.occup[flushSlot] > 0 {
		tel.AddMethodSteps("flush", e.occup[flushSlot])
	}
}

// observeStep feeds the completed step's rank-identical exchange volumes
// back into the policy: the dense width for allreduce tensors, the summed
// per-rank payload sizes for allgather tensors. Measured wall-clock time is
// deliberately absent — it differs across ranks and would desync the policy
// (see the determinism contract in tuner.go).
func (e *Engine) observeStep() {
	for i := range e.obs {
		st := &e.rep.Tensors[i]
		o := &e.obs[i]
		o.Cand = e.assign[i].Cand
		o.Flush = e.isFlush(i)
		o.Strategy = st.Strategy
		o.Fault = e.slots[i].fellback
		switch st.Strategy {
		case Allgather:
			var total int64
			for _, sz := range st.GatherSizes {
				total += int64(sz)
			}
			o.ExchBytes = total
		default:
			o.ExchBytes = int64(st.SentBytes)
		}
	}
	e.tuner.Observe(e.obs)
}

// compressOne runs the pre-communication codec work for tensor i on its
// lane: memory compensation, compression, and the local decompression the
// memory update needs. It always signals the driver, even on error.
func (e *Engine) compressOne(ln *engineLane, i int, g []float32, info TensorInfo) {
	defer func() { e.ready <- i }()
	t0 := time.Now()
	s, st := &e.slots[i], &e.rep.Tensors[i]
	c := e.cand(i)
	cp, strategy := ln.comps[c], ln.caps[c].Strategy
	st.Strategy = strategy

	s.vec = g
	if e.mem != nil {
		span := ln.ts.start()
		s.vec = s.comp
		e.mem.compensateInto(s.vec, info.Name, g)
		ln.ts.end(telemetry.PhaseCompensate, info.Name, span)
	}

	if strategy == Custom {
		// The compressor drives communication itself; all codec happens
		// inside CommunicateAggregate on the driver goroutine.
		st.CodecTime = time.Since(t0)
		return
	}

	span := ln.ts.start()
	pay, err := cp.Compress(s.vec, info)
	if err != nil {
		e.setErr(&StepError{Tensor: i, Name: info.Name, Phase: "compress",
			Err: fmt.Errorf("%s: %w", cp.Name(), err)})
		return
	}
	ln.ts.end(telemetry.PhaseCompress, info.Name, span)
	// The exchange packs Dense for Allreduce and Bytes for Allgather (nil
	// Bytes is an empty payload); a codec whose payload contradicts its
	// declared strategy would desync the collective sequence.
	switch {
	case strategy == Allreduce && pay.Dense == nil:
		err = fmt.Errorf("%s uses Allreduce but produced no dense payload", cp.Name())
	case strategy == Allgather && pay.Bytes == nil && pay.Dense != nil:
		err = fmt.Errorf("%s uses Allgather but produced a dense payload", cp.Name())
	}
	if err != nil {
		e.setErr(&StepError{Tensor: i, Name: info.Name, Phase: "compress", Err: err})
		return
	}
	s.pay = pay
	st.SentBytes = pay.WireBytes()

	if e.mem != nil {
		// Worker-local approximation for the memory update, before the
		// collective so codec time excludes wire wait. Attributed to the
		// compensate phase: the decompression here exists only to feed the
		// residual update (Eq. 4).
		span = ln.ts.start()
		approx, err := ln.decode(c, *pay, info, ln.scratch)
		if err != nil {
			e.setErr(&StepError{Tensor: i, Name: info.Name, Phase: "compress",
				Err: fmt.Errorf("%s local decompress: %w", cp.Name(), err)})
			return
		}
		e.mem.Update(info.Name, s.vec, approx)
		ln.ts.end(telemetry.PhaseCompensate, info.Name, span)
	}
	st.CodecTime = time.Since(t0)
}

// issueBucket runs bucket bi's collective round on the driver goroutine: it
// dispatches once on the bucket's strategy (a bucket never mixes strategies;
// compressOne recorded it) to the one exchange function of that strategy. An
// unfused run is a plan of one-tensor buckets through the same code, and
// because a one-part frame is the bare payload (comm.AppendFused) its wire
// bytes are those of a per-tensor exchange.
func (e *Engine) issueBucket(bi int, infos []TensorInfo) error {
	b := e.buckets[bi]
	e.rep.Rounds++
	if b.size() > 1 {
		e.rep.FusedBuckets++
		e.rep.FusedTensors += b.size()
		for i := b.Lo; i < b.Hi; i++ {
			e.rep.FusedBytes += e.rep.Tensors[i].SentBytes
		}
	}
	switch strat := e.rep.Tensors[b.Lo].Strategy; strat {
	case Allreduce:
		return e.exchangeAllreduce(bi, b, infos)
	case Allgather:
		return e.exchangeAllgather(b, infos)
	case Custom:
		return e.exchangeCustom(b.Lo, infos[b.Lo])
	default:
		return &StepError{Tensor: b.Lo, Name: infos[b.Lo].Name, Phase: "collective",
			Err: fmt.Errorf("unhandled strategy %v", strat)}
	}
}

// stagePhase labels the driver's pack and split work around a bucket's
// collective: payload staging for a bucket of one, fusion work otherwise.
func stagePhase(b Bucket) telemetry.Phase {
	if b.size() > 1 {
		return telemetry.PhaseFuse
	}
	return telemetry.PhaseEncode
}

// exchangeAllreduce concatenates the bucket's dense payloads into the
// bucket's buffer, allreduces it in a single round, and hands each tensor its
// segment as a subslice. Per-element summation is position-independent
// on rank-ordered substrates (the in-process hub), so each segment's sum is
// bitwise identical to the unfused per-tensor allreduce there; ring
// transports chunk by element position, so fused results remain internally
// consistent across ranks but may round differently from the unfused
// schedule (see DESIGN.md).
func (e *Engine) exchangeAllreduce(bi int, b Bucket, infos []TensorInfo) error {
	name := infos[b.Lo].Name
	span := e.drv.start()
	total := 0
	for i := b.Lo; i < b.Hi; i++ {
		total += len(e.slots[i].pay.Dense)
	}
	buf := sized(&e.bucketBuf[bi], total)
	off := 0
	for i := b.Lo; i < b.Hi; i++ {
		off += copy(buf[off:], e.slots[i].pay.Dense)
	}
	e.drv.end(stagePhase(b), name, span)

	span = e.drv.start()
	if err := e.coll.AllreduceF32(buf); err != nil {
		return &StepError{Tensor: b.Lo, Name: name, Phase: "collective", Err: err}
	}
	e.drv.end(telemetry.PhaseCollective, name, span)

	off = 0
	for i := b.Lo; i < b.Hi; i++ {
		n := len(e.slots[i].pay.Dense)
		e.slots[i].summed = buf[off : off+n : off+n]
		e.rep.Tensors[i].RecvBytes = n * 4
		off += n
		e.lanes[i%len(e.lanes)].dec <- i
	}
	return nil
}

// exchangeAllgather frames the bucket's byte payloads into one frame,
// allgathers it in a single round, and splits every rank's frame back into
// the per-tensor rank views (zero-copy subslices). A frame that fails to
// split is a decode fault for the whole bucket: under DecodeFallback each of
// its tensors degrades per-tensor through the recovery round, exactly as an
// unfused corrupt payload would; without it the step fails.
func (e *Engine) exchangeAllgather(b Bucket, infos []TensorInfo) error {
	name, stage := infos[b.Lo].Name, stagePhase(b)
	span := e.drv.start()
	parts := e.parts[:0]
	for i := b.Lo; i < b.Hi; i++ {
		parts = append(parts, e.slots[i].pay.Bytes)
	}
	e.parts = parts
	// The frame is never a reused buffer: on the in-process hub peers read
	// the deposited slice after the exchange returns, so it must stay intact
	// while a later bucket is in flight.
	frame := comm.AppendFused(nil, parts)
	over := comm.FusedOverhead(b.size())
	e.rep.FusionOverheadBytes += over
	// Each peer's frame arrives with the same header overhead.
	e.rep.RecvBytes += (int(e.n) - 1) * over
	e.drv.end(stage, name, span)

	span = e.drv.start()
	all, err := e.coll.AllgatherBytes(frame)
	if err != nil {
		return &StepError{Tensor: b.Lo, Name: name, Phase: "collective", Err: err}
	}
	e.drv.end(telemetry.PhaseCollective, name, span)

	span = e.drv.start()
	for r, rframe := range all {
		if err := comm.SplitFused(rframe, parts); err != nil {
			// The lanes never see these indices, so the driver owns the
			// bucket's fault state exclusively here.
			for i := b.Lo; i < b.Hi; i++ {
				e.failTensor(i, infos[i], fmt.Errorf("fused frame from rank %d: %w", r, err))
			}
			e.drv.end(stage, name, span)
			return e.err()
		}
		for k, p := range parts {
			e.slots[b.Lo+k].views[r] = p
		}
	}
	e.drv.end(stage, name, span)

	for i := b.Lo; i < b.Hi; i++ {
		st := &e.rep.Tensors[i]
		for r, p := range e.slots[i].views {
			if r != e.rank {
				st.RecvBytes += len(p)
			}
		}
		e.lanes[i%len(e.lanes)].dec <- i
	}
	return nil
}

// exchangeCustom lets a Custom-strategy compressor drive tensor i's
// communication itself (never fused, never autotuned); all of its codec work
// happens inside CommunicateAggregate on the driver goroutine.
func (e *Engine) exchangeCustom(i int, info TensorInfo) error {
	ln, vec := e.lanes[i%len(e.lanes)], e.slots[i].vec
	st := &e.rep.Tensors[i]
	span := e.drv.start()
	agg, sent, err := ln.caps[0].Custom.CommunicateAggregate(vec, info, e.coll)
	if err != nil {
		return &StepError{Tensor: i, Name: info.Name, Phase: "custom",
			Err: fmt.Errorf("%s: %w", ln.comps[0].Name(), err)}
	}
	e.drv.end(telemetry.PhaseCollective, info.Name, span)
	st.SentBytes = sent
	// CustomComm reports only its send volume; assume a symmetric
	// exchange for the receive side rather than report zero.
	st.RecvBytes = sent
	if e.mem != nil {
		t := time.Now()
		span = e.drv.start()
		e.mem.Update(info.Name, vec, agg)
		e.drv.end(telemetry.PhaseCompensate, info.Name, span)
		st.CodecTime += time.Since(t)
	}
	e.out[i] = agg
	return nil
}

// sized returns *buf at length n, replacing it when it is too small. A
// bucket's buffer is read by its tensors' decoding lanes while the driver is
// inside the next bucket's collective, and is free again by the next Step.
func sized(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	return (*buf)[:n]
}

// decodeOne runs the post-communication codec work for tensor i on its lane:
// decompressing the collective's result and aggregating into the output
// buffer.
func (e *Engine) decodeOne(ln *engineLane, i int, info TensorInfo) {
	if e.err() != nil {
		return
	}
	t0 := time.Now()
	s, st := &e.slots[i], &e.rep.Tensors[i]
	c := e.cand(i)
	switch ln.caps[c].Strategy {
	case Allreduce:
		span := ln.ts.start()
		agg, err := ln.decode(c, Payload{Dense: s.summed}, info, e.out[i])
		if err != nil {
			e.failTensor(i, info, fmt.Errorf("%s decompress sum: %w", ln.comps[c].Name(), err))
			return
		}
		e.out[i] = agg
		ln.ts.end(telemetry.PhaseDecode, info.Name, span)
		span = ln.ts.start()
		tensor.Scale(1/e.n, agg)
		ln.ts.end(telemetry.PhaseAggregate, info.Name, span)

	case Allgather:
		for rank, b := range s.views {
			s.gsz[rank] = len(b)
		}
		st.GatherSizes = s.gsz
		if err := ln.decodeAggregate(c, s.views, info, e.out[i], e.n); err != nil {
			e.failTensor(i, info, err)
			return
		}
	}
	st.CodecTime += time.Since(t0)
}

// failTensor handles a decode failure for tensor i: under DecodeFallback it
// is recoverable — marked for the recovery round and survived — otherwise it
// poisons the step. During the exchange tensor i's fault state is only ever
// touched by one goroutine — the lane that decodes it, or the driver when the
// tensor's frame never split and no lane was handed it — and by the driver
// again after wg.Wait, so plain writes are race-free.
func (e *Engine) failTensor(i int, info TensorInfo, err error) {
	if e.fallback {
		e.slots[i].failed = true
		e.slots[i].q.Faults++
		return
	}
	e.setErr(&StepError{Tensor: i, Name: info.Name, Phase: "decode", Err: err})
}

// recoverStep is the deterministic graceful-degradation round run when
// DecodeFallback is enabled. Workers allgather a per-tensor failure bitmask
// and take its union, so every rank agrees on which tensors to salvage even
// when only some ranks observed the bad payload; each affected tensor is then
// re-exchanged uncompressed — the NoneCompressor path: AllreduceF32 of the
// compensated gradient, averaged — in ascending order. Every worker issues
// the identical collective sequence, preserving the lockstep contract, and a
// corrupt payload costs one step of compression savings instead of the run.
func (e *Engine) recoverStep(infos []TensorInfo) error {
	span := e.drv.start()
	m := len(infos)
	mask := make([]byte, (m+7)/8)
	for i := range e.slots {
		if e.slots[i].failed {
			mask[i/8] |= 1 << (i % 8)
			e.rep.Faults++
		}
	}
	all, err := e.coll.AllgatherBytes(mask)
	if err != nil {
		return &StepError{Tensor: -1, Phase: "recovery", Err: err}
	}
	// Every peer's mask arrives over the wire; ours does not.
	e.rep.RecvBytes += (len(all) - 1) * len(mask)
	union := make([]byte, len(mask))
	for _, b := range all {
		if len(b) != len(mask) {
			return &StepError{Tensor: -1, Phase: "recovery",
				Err: fmt.Errorf("fault mask length mismatch: %d vs %d bytes", len(b), len(mask))}
		}
		for j := range union {
			union[j] |= b[j]
		}
	}
	for i := 0; i < m; i++ {
		if union[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		s := &e.slots[i]
		if e.out[i] == nil || s.vec == nil {
			// Custom-strategy tensors own their aggregation and never mark
			// failures; a peer claiming one is a protocol violation.
			return &StepError{Tensor: i, Name: infos[i].Name, Phase: "recovery",
				Err: fmt.Errorf("tensor is not recoverable")}
		}
		copy(e.out[i], s.vec)
		if err := e.coll.AllreduceF32(e.out[i]); err != nil {
			return &StepError{Tensor: i, Name: infos[i].Name, Phase: "recovery", Err: err}
		}
		tensor.Scale(1/e.n, e.out[i])
		e.rep.Fallbacks++
		s.fellback = true
		s.q.Fallbacks++
		e.rep.Tensors[i].SentBytes += len(e.out[i]) * 4
		e.rep.Tensors[i].RecvBytes += len(e.out[i]) * 4
	}
	e.drv.end(telemetry.PhaseRecovery, "", span)
	return nil
}

// ensure sizes the engine's state for the given tensor set in one pass —
// reusing everything while shapes are unchanged from the previous step — and
// resets the per-step state.
func (e *Engine) ensure(infos []TensorInfo) error {
	m := len(infos)
	same := len(e.slots) == m
	for i := 0; same && i < m; i++ {
		same = e.slots[i].q.Params == infos[i].Size()
	}
	if !same {
		p, n := len(e.lanes), e.coll.Size()
		// Fusion plans on the engine-wide strategy. A tuning engine has none,
		// but it never fuses (admit), so planBuckets yields buckets of one and
		// the value is inert; its candidates are never Custom either.
		strategy := e.lanes[0].caps[0].Strategy
		e.buckets = planBuckets(infos, e.fusion, strategy)
		e.bucketBuf = make([][]float32, len(e.buckets))
		e.slots = make([]tensorSlot, m)
		e.out = make([][]float32, m)
		e.rep.Tensors = make([]StepStats, m)
		laneMax := make([]int, p)
		for i, info := range infos {
			size := info.Size()
			s := &e.slots[i]
			s.q = TensorQuality{Tensor: i, Name: info.Name, Params: size}
			s.views, s.gsz = make([][]byte, n), make([]int, n)
			if strategy != Custom {
				// Custom-strategy compressors return their own aggregate
				// slice; everything else aggregates into a persistent buffer.
				e.out[i] = make([]float32, size)
			}
			if e.mem != nil {
				s.comp = make([]float32, size)
			}
			if size > laneMax[i%p] {
				laneMax[i%p] = size
			}
		}
		for l, ln := range e.lanes {
			// One decode scratch per lane, for codecs with DecompressInto: the
			// local decompress of the EF update, then the per-rank allgather
			// decode (never both at once — a lane compresses all its tensors
			// before it decodes any).
			ln.scratch = nil
			for _, caps := range ln.caps {
				if caps.Into != nil && (e.mem != nil || caps.Strategy == Allgather) && laneMax[l] > 0 {
					ln.scratch = make([]float32, laneMax[l])
					break
				}
			}
			if cap(ln.dec) < m/p+2 {
				ln.dec = make(chan int, m/p+2)
			}
		}
		if cap(e.ready) < m {
			e.ready = make(chan int, m)
		}
		if e.tuner != nil {
			if err := e.tuner.Init(infos); err != nil {
				return fmt.Errorf("grace: autotune init: %w", err)
			}
			e.assign = make([]TunerAssign, m)
			e.obs = make([]TunerObs, m)
			e.rep.PolicyByTensor = make([]string, m)
		}
	}

	e.firstErr = nil
	e.rep = StepReport{Tensors: e.rep.Tensors, Buckets: e.buckets, PolicyByTensor: e.rep.PolicyByTensor}
	for i := range e.slots {
		s := &e.slots[i]
		s.vec, s.pay, s.summed = nil, nil, nil
		s.have, s.failed, s.fellback = false, false, false
		e.rep.Tensors[i] = StepStats{}
	}
	return nil
}

func (e *Engine) setErr(err error) {
	e.errMu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.errMu.Unlock()
}

func (e *Engine) err() error {
	e.errMu.Lock()
	err := e.firstErr
	e.errMu.Unlock()
	return err
}
