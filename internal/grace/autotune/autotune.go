// Package autotune is the runtime compression policy engine: a grace.Tuner
// that, every K steps, scores the candidate (method, ratio) pairs per tensor
// using the exchanged byte volumes the engine observed, combined with the
// simnet α-β link model and a coarse codec cost model, and switches a
// tensor's compressor when the modeled step time improves by a hysteresis
// margin.
//
// # Determinism
//
// Every rank runs its own Policy instance with no extra collective, so the
// whole policy is a pure function of rank-identical inputs:
//
//   - the step counter (ranks run in lockstep),
//   - the tensor metadata bound at Init (identical model on every rank),
//   - the exchanged byte counts fed back through Observe — an allreduce's
//     dense width is the same on every rank by construction, and an
//     allgather's ExchBytes is the sum of every rank's payload size, which
//     every rank sees in full,
//   - and the configuration constants (candidate set, period, hysteresis,
//     link model, worker count), which must be identical on every rank.
//
// Locally measured wall-clock time never enters a decision — it differs
// across ranks and would desync the collective sequence. Scoring uses
// modeled time derived from the byte observations instead. Floating-point
// scoring is reproducible across ranks because every rank evaluates the
// identical expression tree over identical inputs.
//
// # Exploration
//
// The first len(candidates) decision windows are warmup probes: window w
// assigns candidate w to every tensor, so by the end of warmup every
// (tensor, candidate) pair has real byte observations and steady-state
// scoring never depends on the built-in priors (the priors only matter for
// pairs that could not be observed, e.g. an Every=1 run whose single probe
// step was consumed by a flush handoff).
//
// # Fault evidence
//
// When the engine runs with DecodeFallback, each observation carries a
// rank-identical Fault flag (derived from the recovery round's union bitmask,
// see grace.TunerObs). The policy counts faults per (tensor, candidate) pair
// and multiplies the pair's modeled time by a growing penalty, so a candidate
// whose payloads keep failing decode is steered away from without breaking
// determinism — every rank observes the identical union. Fault memory is
// deliberately ephemeral (not part of TunerState): after a restore the policy
// trajectory still replays bitwise, it merely re-learns fault evidence, which
// is the desired behavior when the fault source was the previous incarnation's
// environment.
//
// # EF handoff
//
// Switching methods under error-feedback memory (Eq. 4) changes what the
// residual means. Config.EFHandoff selects the policy: "flush" (default)
// spends the first step after a switch exchanging the compensated gradient
// uncompressed, which zeroes the residual exactly, so the incoming method
// starts from clean accounting; "carry" leaves the residual in place — the
// EF recurrence telescopes regardless of which method produced each step's
// approximation, so nothing is lost, at the cost of the new method inheriting
// the old method's bias direction.
package autotune

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/grace"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// EF handoff policies (Config.EFHandoff).
const (
	// HandoffFlush zeroes the residual on a switch by spending one
	// uncompressed exchange (see the package doc).
	HandoffFlush = "flush"
	// HandoffCarry leaves the residual in place across a switch.
	HandoffCarry = "carry"
)

// Config parameterizes a Policy. Every field that influences decisions is
// folded into Sig(), so checkpoints reject resumes under a different
// configuration, and every worker must be constructed with identical values.
type Config struct {
	// Candidates is the method set the policy chooses among; nil selects
	// DefaultCandidates(). Candidates must be non-Custom registry methods
	// without per-tensor codec state (grace.NewEngine enforces this).
	Candidates []grace.TunerCandidate
	// Every is the decision period in steps; 0 selects 5. The first
	// len(Candidates) windows probe each candidate in turn (warmup).
	Every int
	// Hysteresis is the relative improvement a challenger must show over the
	// incumbent to trigger a switch; 0 selects 0.10 (10%). Negative is
	// rejected; an explicit 0 is expressed as a tiny positive value.
	Hysteresis float64
	// Link is the α-β network model scoring charges wire time against; the
	// zero value selects simnet.TCP10G.
	Link simnet.Link
	// Workers is the collective group size (required, ≥ 1). It shapes both
	// the ring cost formulas and the allgather volume accounting.
	Workers int
	// EFHandoff is the residual policy on method switches: HandoffFlush
	// (default) or HandoffCarry.
	EFHandoff string
}

// DefaultCandidates is the stock candidate set: the uncompressed baseline,
// two Top-k sparsification ratios, and 8-bit quantization — one entry per
// regime the paper's Figure 10 sweep distinguishes.
func DefaultCandidates() []grace.TunerCandidate {
	return []grace.TunerCandidate{
		{Label: "none", Method: "none"},
		{Label: "topk@0.01", Method: "topk", Opts: grace.Options{Ratio: 0.01}},
		{Label: "topk@0.05", Method: "topk", Opts: grace.Options{Ratio: 0.05}},
		{Label: "eightbit", Method: "eightbit"},
	}
}

// candModel is the per-candidate scoring input resolved at construction:
// the communication strategy (probed from a throwaway instance) and the
// codec cost coefficients (by registry class).
type candModel struct {
	strategy grace.Strategy
	class    string
	// encNsPerElem / decNsPerByte are the coarse codec cost coefficients;
	// see score().
	encNsPerElem float64
	decNsPerByte float64
	// ratio is the effective sparsification ratio for byte priors.
	ratio float64
}

// Policy implements grace.Tuner. Construct with New; a Policy belongs to one
// worker and is not safe for concurrent use.
type Policy struct {
	cfg     Config
	cands   []grace.TunerCandidate
	models  []candModel
	cluster simnet.Cluster
	sig     string

	// sizes is the bound tensor set's element counts (Init).
	sizes []int

	step         int64
	switches     int64
	nextSwitches int32
	// assign is the per-tensor target assignment for upcoming steps; pending
	// marks tensors whose flush handoff has not run yet.
	assign  []int32
	pending []bool
	// lastBytes[i*C+c] is the last ExchBytes observed for tensor i under
	// candidate c (-1 = never observed).
	lastBytes []int64
	// faults[i*C+c] counts union decode faults observed for tensor i under
	// candidate c. Ephemeral by design — see the package doc's fault-evidence
	// section — so it is absent from TunerState.
	faults []int64
}

// New builds a Policy. Candidate methods are resolved against the grace
// registry at call time (import a compressor aggregate such as
// internal/compress/all first).
func New(cfg Config) (*Policy, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("autotune: Workers must be ≥ 1, got %d", cfg.Workers)
	}
	if cfg.Every < 0 {
		return nil, fmt.Errorf("autotune: Every must be ≥ 0, got %d", cfg.Every)
	}
	if cfg.Every == 0 {
		cfg.Every = 5
	}
	if cfg.Hysteresis < 0 {
		return nil, fmt.Errorf("autotune: Hysteresis must be ≥ 0, got %g", cfg.Hysteresis)
	}
	if cfg.Hysteresis == 0 {
		cfg.Hysteresis = 0.10
	}
	if cfg.Link == (simnet.Link{}) {
		cfg.Link = simnet.TCP10G
	}
	switch cfg.EFHandoff {
	case "":
		cfg.EFHandoff = HandoffFlush
	case HandoffFlush, HandoffCarry:
	default:
		return nil, fmt.Errorf("autotune: unknown EFHandoff %q (want %q or %q)", cfg.EFHandoff, HandoffFlush, HandoffCarry)
	}
	cands := cfg.Candidates
	if cands == nil {
		cands = DefaultCandidates()
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("autotune: empty candidate set")
	}
	seen := map[string]bool{}
	p := &Policy{cfg: cfg, cands: cands, cluster: simnet.NewCluster(cfg.Link, cfg.Workers)}
	for i, cand := range cands {
		if cand.Label == "" {
			return nil, fmt.Errorf("autotune: candidate %d has no label", i)
		}
		if seen[cand.Label] {
			return nil, fmt.Errorf("autotune: duplicate candidate label %q", cand.Label)
		}
		seen[cand.Label] = true
		meta, err := grace.Lookup(cand.Method)
		if err != nil {
			return nil, fmt.Errorf("autotune: candidate %q: %w", cand.Label, err)
		}
		c, err := grace.New(cand.Method, cand.Opts)
		if err != nil {
			return nil, fmt.Errorf("autotune: candidate %q: %w", cand.Label, err)
		}
		m := candModel{strategy: grace.Capabilities(c).Strategy, class: meta.Class, ratio: cand.Opts.Ratio}
		if m.ratio <= 0 {
			m.ratio = 0.01
		}
		switch meta.Class {
		case "baseline":
			m.encNsPerElem, m.decNsPerByte = 0.5, 0.25
		case "quantization":
			m.encNsPerElem, m.decNsPerByte = 2, 0.5
		default: // sparsification, hybrid, ...
			m.encNsPerElem, m.decNsPerByte = 6, 0.5
		}
		p.models = append(p.models, m)
	}
	p.sig = buildSig(cfg, cands)
	return p, nil
}

// buildSig renders the full decision-relevant configuration as a stable
// string. Identical configs yield identical signatures on every rank and
// across runs, which is what lets checkpoints pin the policy.
func buildSig(cfg Config, cands []grace.TunerCandidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "autotune:v1 every=%d hyst=%g link=%s/%gGbps/%s/%g n=%d handoff=%s cands=",
		cfg.Every, cfg.Hysteresis, cfg.Link.Name, cfg.Link.BandwidthGbps,
		cfg.Link.StepLatency, cfg.Link.Efficiency, cfg.Workers, cfg.EFHandoff)
	for i, c := range cands {
		if i > 0 {
			b.WriteByte(',')
		}
		o := c.Opts
		fmt.Fprintf(&b, "%s=%s{r=%g,l=%d,rk=%d,t=%g,m=%g,s=%d}",
			c.Label, c.Method, o.Ratio, o.Levels, o.Rank, o.Threshold, o.Momentum, o.Seed)
	}
	return b.String()
}

// Candidates implements grace.Tuner.
func (p *Policy) Candidates() []grace.TunerCandidate { return p.cands }

// Sig implements grace.Tuner.
func (p *Policy) Sig() string { return p.sig }

// Init implements grace.Tuner: it binds the policy to the run's tensor set.
// A restore (LoadState) may precede Init; the bind then only validates that
// the tensor count matches the checkpointed trajectory.
func (p *Policy) Init(infos []grace.TensorInfo) error {
	m := len(infos)
	sizes := make([]int, m)
	for i, info := range infos {
		sizes[i] = info.Size()
	}
	if p.sizes != nil || p.assign != nil {
		if len(p.assign) != m {
			return fmt.Errorf("autotune: policy tracks %d tensors, run has %d (the tensor set must be stable)", len(p.assign), m)
		}
		p.sizes = sizes
		if p.faults == nil {
			// A restore precedes this bind; fault memory starts fresh.
			p.faults = make([]int64, m*len(p.cands))
		}
		return nil
	}
	p.sizes = sizes
	p.assign = make([]int32, m)
	p.pending = make([]bool, m)
	p.lastBytes = make([]int64, m*len(p.cands))
	for i := range p.lastBytes {
		p.lastBytes[i] = -1
	}
	p.faults = make([]int64, m*len(p.cands))
	return nil
}

// Plan implements grace.Tuner: it publishes the current target assignment
// (with any pending flush handoffs) and reports the switches that took
// effect at this step's start.
func (p *Policy) Plan(dst []grace.TunerAssign) int {
	for i := range dst {
		dst[i] = grace.TunerAssign{Cand: int(p.assign[i]), Flush: p.pending[i]}
	}
	n := int(p.nextSwitches)
	p.switches += int64(n)
	p.nextSwitches = 0
	return n
}

// Observe implements grace.Tuner: it records the step's byte observations,
// consumes any flush handoffs the step ran, advances the step counter, and —
// at decision boundaries — recomputes the assignment.
func (p *Policy) Observe(obs []grace.TunerObs) {
	C := len(p.cands)
	for i := range obs {
		o := &obs[i]
		if o.Flush || o.Cand < 0 || o.Cand >= C {
			continue
		}
		p.lastBytes[i*C+o.Cand] = o.ExchBytes
		if o.Fault {
			p.faults[i*C+o.Cand]++
			telemetry.Default.Add(telemetry.CtrAutotuneFaultObs, 1)
		}
	}
	// Any handoff requested by the last Plan has now run (or was ignored by a
	// memoryless engine, which is just as final).
	for i := range p.pending {
		p.pending[i] = false
	}
	p.step++
	if p.step%int64(p.cfg.Every) != 0 {
		return
	}
	p.decide()
}

// decide recomputes the per-tensor assignment at a window boundary: the
// first C windows probe each candidate in turn, the window right after
// warmup takes the scored argmin outright (the "incumbent" there is merely
// the last probe, with no claim to incumbency), and every later boundary
// switches a tensor only when the best challenger models at least
// Hysteresis faster than the incumbent. Ties break toward the lowest
// candidate index.
func (p *Policy) decide() {
	telemetry.Default.Add(telemetry.CtrAutotuneDecisions, 1)
	C := len(p.cands)
	window := p.step / int64(p.cfg.Every)
	if window < int64(C) {
		// Warmup: probe candidate `window` on every tensor.
		p.retarget(func(i int) int32 { return int32(window) })
		return
	}
	p.retarget(func(i int) int32 {
		best, bestScore := p.assign[i], math.Inf(1)
		for c := 0; c < C; c++ {
			s := p.score(i, c)
			if s < bestScore {
				best, bestScore = int32(c), s
			}
		}
		cur := p.assign[i]
		if best == cur {
			return cur
		}
		if window == int64(C) || bestScore < (1-p.cfg.Hysteresis)*p.score(i, int(cur)) {
			return best
		}
		return cur
	})
}

// retarget applies a new assignment, counting switches and arming flush
// handoffs under HandoffFlush.
func (p *Policy) retarget(target func(i int) int32) {
	for i := range p.assign {
		t := target(i)
		if t == p.assign[i] {
			continue
		}
		p.assign[i] = t
		p.nextSwitches++
		if p.cfg.EFHandoff == HandoffFlush {
			p.pending[i] = true
		}
	}
}

// score models tensor i's per-step time under candidate c, in nanoseconds:
//
//	score = wire + encode + decode
//	wire   = α-β ring cost of the candidate's collective at its observed
//	         (or, before first observation, estimated) byte volume
//	encode = encNsPerElem[class] · n
//	decode = decNsPerByte[class] · recvBytes
//
// All inputs are rank-identical (see the package doc), so every rank scores
// identically.
func (p *Policy) score(i, c int) float64 {
	m := &p.models[c]
	n := p.sizes[i]
	bytes := p.lastBytes[i*len(p.cands)+c]
	if bytes < 0 {
		bytes = p.estBytes(i, c)
	}
	var wire time.Duration
	var recv float64
	switch m.strategy {
	case grace.Allreduce:
		wire = p.cluster.AllreduceTime(int(bytes))
		recv = float64(bytes)
	default: // Allgather
		per := int(bytes) / p.cfg.Workers
		wire = p.cluster.AllgatherUniformTime(per)
		recv = float64(bytes) - float64(per) // peers' payloads
	}
	s := float64(wire.Nanoseconds()) + m.encNsPerElem*float64(n) + m.decNsPerByte*recv
	// Each union decode fault observed for this pair quadruples the price of
	// the next one: a strong, deterministic push away from candidates whose
	// payloads keep failing, without the cliff of a hard disqualification
	// (were every candidate faulting, argmin over equal penalties still
	// yields a valid, rank-identical assignment).
	if f := p.faults[i*len(p.cands)+c]; f > 0 {
		s *= float64(1 + 4*f)
	}
	return s
}

// estBytes is the pre-observation byte prior for (tensor, candidate):
// the dense width for allreduce candidates; for allgather candidates a
// class-shaped per-rank payload guess times the group size. Priors only
// matter before the warmup probe of the pair lands (see the package doc).
func (p *Policy) estBytes(i, c int) int64 {
	m := &p.models[c]
	n := p.sizes[i]
	if m.strategy == grace.Allreduce {
		return int64(4 * n)
	}
	var per int64
	switch m.class {
	case "quantization":
		per = int64(n + 32)
	case "sparsification", "hybrid":
		k := int64(math.Ceil(m.ratio * float64(n)))
		if k < 1 {
			k = 1
		}
		per = 8*k + 16
	default:
		per = int64(4*n + 16)
	}
	return per * int64(p.cfg.Workers)
}

// SetWorldSize implements grace.WorldSizeSetter: it re-derives the policy's
// group-shaped inputs (worker count, ring cost model, configuration
// signature) after an elastic membership change and resets the decision
// trajectory — assignment, step counter, byte observations, and fault
// evidence all restart, including the warmup probe windows. The signature
// pins the worker count, so pre-resize checkpointed states are correctly
// rejected afterwards. Every member calls this with the identical new size at
// the identical step, so the restarted trajectories stay rank-identical.
func (p *Policy) SetWorldSize(n int) {
	if n < 1 || n == p.cfg.Workers {
		return
	}
	p.cfg.Workers = n
	p.cluster = simnet.NewCluster(p.cfg.Link, n)
	p.sig = buildSig(p.cfg, p.cands)
	p.step = 0
	p.switches = 0
	p.nextSwitches = 0
	for i := range p.assign {
		p.assign[i] = 0
	}
	for i := range p.pending {
		p.pending[i] = false
	}
	for i := range p.lastBytes {
		p.lastBytes[i] = -1
	}
	for i := range p.faults {
		p.faults[i] = 0
	}
}

// State implements grace.Tuner.
func (p *Policy) State() *grace.TunerState {
	st := &grace.TunerState{
		Sig:          p.sig,
		Step:         p.step,
		Switches:     p.switches,
		NextSwitches: p.nextSwitches,
		Cands:        int32(len(p.cands)),
		Assign:       p.assign,
		Pending:      p.pending,
		LastBytes:    p.lastBytes,
	}
	return st.Clone()
}

// LoadState implements grace.Tuner: it validates the snapshot against this
// policy's configuration and restores the trajectory bitwise.
func (p *Policy) LoadState(st *grace.TunerState) error {
	if st == nil {
		return fmt.Errorf("autotune: nil policy state")
	}
	if st.Sig != p.sig {
		return fmt.Errorf("autotune: checkpoint is for policy %q, run uses %q", st.Sig, p.sig)
	}
	if int(st.Cands) != len(p.cands) {
		return fmt.Errorf("autotune: checkpoint has %d candidates, policy has %d", st.Cands, len(p.cands))
	}
	if st.Step < 0 || st.Switches < 0 || st.NextSwitches < 0 {
		return fmt.Errorf("autotune: negative counters in policy state")
	}
	m := len(st.Assign)
	if len(st.Pending) != m || len(st.LastBytes) != m*len(p.cands) {
		return fmt.Errorf("autotune: inconsistent policy state dimensions (%d assigns, %d pendings, %d byte cells)",
			m, len(st.Pending), len(st.LastBytes))
	}
	for i, a := range st.Assign {
		if a < 0 || int(a) >= len(p.cands) {
			return fmt.Errorf("autotune: tensor %d assigned out-of-range candidate %d", i, a)
		}
	}
	for i, b := range st.LastBytes {
		if b < -1 {
			return fmt.Errorf("autotune: byte cell %d holds invalid volume %d", i, b)
		}
	}
	if p.assign != nil && len(p.assign) != m {
		return fmt.Errorf("autotune: policy tracks %d tensors, checkpoint has %d", len(p.assign), m)
	}
	cl := st.Clone()
	p.step = cl.Step
	p.switches = cl.Switches
	p.nextSwitches = cl.NextSwitches
	p.assign = cl.Assign
	p.pending = cl.Pending
	p.lastBytes = cl.LastBytes
	return nil
}
