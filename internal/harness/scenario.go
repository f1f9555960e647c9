package harness

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/grace"
	"repro/internal/grace/autotune"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// Transport selects the collective substrate a fault scenario runs on. Hub
// and TCP rings reduce in different floating-point orders, so a scenario's
// reference run always uses the same transport as its faulted run — bitwise
// comparison is only meaningful within one.
const (
	TransportHub = "hub"
	TransportTCP = "tcp"
)

// ErrSimulatedCrash marks the kill a fault scenario injects into one worker:
// the rank stops dead right after a step boundary, as a SIGKILL would, and
// the group must recover without it.
var ErrSimulatedCrash = errors.New("harness: simulated worker crash")

// Scenario selects how the group recovers from the kill a RecoveryConfig
// describes. The training contract is the same for all of them: the recovered
// run's final weights (and autotune policy state) equal the appropriate
// fault-free reference bit for bit.
type Scenario string

const (
	// ScenarioRestart: the crash poisons the group for good; the supervisor
	// tears every rank down and relaunches all of them with Resume, so they
	// roll back to the newest checkpoint step they can all load (or start
	// fresh when the kill came before the first one). Reference: an
	// uninterrupted run.
	ScenarioRestart Scenario = "restart"
	// ScenarioRejoin: the survivors never leave their RunWorker call — they
	// reform the group at the next generation and roll back in place while
	// the supervisor respawns only the victim. Reference: an uninterrupted
	// run.
	ScenarioRejoin Scenario = "rejoin"
	// ScenarioShrink: the victim is gone for good; the survivors hold the
	// door open for the rejoin deadline, then commit N−1 and finish.
	// Reference: a fresh N−1 group resumed from the survivors' rollback
	// snapshots.
	ScenarioShrink Scenario = "shrink"
	// ScenarioGrow: shrink as above, then a fresh worker presents under the
	// lost original rank, the members' join beacon absorbs it, and every
	// rank must finish at the full world size again.
	ScenarioGrow Scenario = "grow"
)

// Timing of a supervised scenario. None of these has a second value in use,
// so they are constants; all stretch under the race detector (see
// raceTimeoutScale).
const (
	// scenarioWatchdog bounds one phase (one group's lifetime).
	scenarioWatchdog = 60 * time.Second * raceTimeoutScale
	// scenarioRejoinDeadline is how long elastic survivors hold the door open
	// for the lost rank before voting to shrink: short, so the vote fires
	// quickly once the victim is convicted.
	scenarioRejoinDeadline = 500 * time.Millisecond * raceTimeoutScale
	// TCP ring liveness and timeouts (ignored on the hub, which has
	// supervisor-driven abort instead).
	scenarioHeartbeat    = 25 * time.Millisecond
	scenarioSetupTimeout = 10 * time.Second * raceTimeoutScale
	scenarioOpTimeout    = 30 * time.Second * raceTimeoutScale
	// scenarioKeep is the checkpoint retention: the shrink reference reloads
	// the rollback snapshot after the degraded run finished, so the default
	// keep-3 pruning must not eat it.
	scenarioKeep = 64
)

// RecoveryConfig describes one supervised fault experiment: train with
// periodic checkpoints, kill one rank mid-run, recover the way the Scenario
// says, and require the finals to match the fault-free reference bit for bit.
type RecoveryConfig struct {
	// Train is the base run. Checkpoint, OnStep and Elastic are owned by the
	// supervisor and must be nil.
	Train grace.Config
	// Dir is the checkpoint root; each phase of a scenario checkpoints into
	// it or a subdirectory.
	Dir string
	// Every is the checkpoint cadence in optimizer steps.
	Every int
	// KillRank dies immediately after step KillStep's checkpoint is durable.
	KillRank int
	KillStep int64
	// KillMode selects how a TCP victim dies: "kill" (default) severs its
	// sockets like a process death; "hang" freezes it with sockets open, so
	// the survivors' liveness layer must convict through the heartbeat miss
	// window instead of a socket reset. Ignored on the hub.
	KillMode string
	// Transport is TransportHub (default) or TransportTCP.
	Transport string
}

// ringConfig assembles one rank's TCP ring configuration.
func (cfg *RecoveryConfig) ringConfig(rank int, addrs []string) comm.RingConfig {
	return comm.RingConfig{
		Rank: rank, Addrs: addrs,
		SetupTimeout: scenarioSetupTimeout,
		OpTimeout:    scenarioOpTimeout,
		Heartbeat:    scenarioHeartbeat,
		Seed:         cfg.Train.Seed,
	}
}

// validate is the one scenario validation.
func (cfg *RecoveryConfig) validate(s Scenario) error {
	n := cfg.Train.Workers
	if t := cfg.Train; t.Checkpoint != nil || t.OnStep != nil || t.Elastic != nil {
		return fmt.Errorf("harness: the scenario runner owns Checkpoint, OnStep, and Elastic")
	}
	if cfg.Dir == "" || cfg.Every <= 0 {
		return fmt.Errorf("harness: a scenario needs Dir and Every")
	}
	if cfg.KillRank < 0 || cfg.KillRank >= n {
		return fmt.Errorf("harness: kill rank %d out of [0,%d)", cfg.KillRank, n)
	}
	if cfg.KillStep <= 0 {
		return fmt.Errorf("harness: kill step must be positive")
	}
	switch cfg.Transport {
	case "", TransportHub, TransportTCP:
	default:
		return fmt.Errorf("harness: unknown transport %q", cfg.Transport)
	}
	switch cfg.KillMode {
	case "", "kill", "hang":
	default:
		return fmt.Errorf("harness: unknown kill mode %q", cfg.KillMode)
	}
	switch s {
	case ScenarioRestart, ScenarioRejoin:
	case ScenarioShrink, ScenarioGrow:
		if n < 3 {
			return fmt.Errorf("harness: an elastic scenario needs at least 3 workers (the shrink must keep a ring)")
		}
	default:
		return fmt.Errorf("harness: unknown scenario %q", s)
	}
	return nil
}

// ScenarioResult is what one supervised scenario observed, in the form the
// run summaries serialize. Each scenario fills the fields its recovery path
// produces; the rest stay zero and are omitted from the JSON row.
type ScenarioResult struct {
	Scenario string `json:"scenario"`
	// Pass is the scenario's verdict: the bitwise match (restart, rejoin,
	// shrink) or the group back at full size past the shrink (grow).
	Pass bool `json:"pass"`
	// ResumeStep is the step every rank rolled back to, the sync round's
	// verdict (restart, rejoin); 0 when a restart started fresh.
	ResumeStep int64 `json:"resume_step,omitempty"`
	// Generation is the group generation after the heal (rejoin).
	Generation uint64 `json:"generation,omitempty"`
	// Launches counts RunWorker invocations per rank (rejoin): 1 for every
	// healthy rank, 2 for the victim. The runner enforces this for every
	// scenario that replaces the victim.
	Launches []int `json:"launches,omitempty"`
	// Heals counts OnHeal events across ranks, one per participating rank.
	Heals int `json:"heals,omitempty"`
	// Reforms and TransferBytes are telemetry counter deltas over the rejoin
	// run; the latter only moves when a rank lost its checkpoints and adopted
	// a donor snapshot.
	Reforms       int64 `json:"reforms,omitempty"`
	TransferBytes int64 `json:"transfer_bytes,omitempty"`
	// ShrinkStep, ShrinkSize and Lost describe the committed smaller
	// membership: the rollback step, the new world size, the evicted
	// original ranks.
	ShrinkStep int64 `json:"shrink_step,omitempty"`
	ShrinkSize int   `json:"shrink_size,omitempty"`
	Lost       []int `json:"lost,omitempty"`
	// EFDrops is the elastic_ef_drops_total delta over the degraded run: one
	// per evicted rank per tensor per survivor when EF memory is on.
	EFDrops int64 `json:"ef_drops,omitempty"`
	// Match reports bitwise equality of Finals against Reference.
	Match bool `json:"bitwise_match,omitempty"`
	// ElapsedMs is the restart scenario's wall time over all three phases.
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	// DowntimeMs is the span from the kill to recovery: the restarted group's
	// first completed step (restart), the last rank's heal (rejoin), or the
	// last survivor resuming at the smaller size (shrink).
	DowntimeMs float64 `json:"downtime_ms,omitempty"`
	// RestartDowntimeMs is the restart scenario's DowntimeMs on the same
	// kill, copied in by callers that print the comparison column.
	RestartDowntimeMs float64 `json:"restart_downtime_ms,omitempty"`
	// GrowStep, GrowSize and GrowDowntimeMs describe the absorption: the
	// rollback step, the committed size, and the span from the joiner's
	// launch to the group resuming at full size.
	GrowStep       int64   `json:"grow_step,omitempty"`
	GrowSize       int     `json:"grow_size,omitempty"`
	GrowDowntimeMs float64 `json:"grow_downtime_ms,omitempty"`
	// KillErrors renders KillErrs, rank-aligned ("" for a clean exit).
	KillErrors []string `json:"kill_errors,omitempty"`
	Detail     string   `json:"detail,omitempty"`
	// Err reports a failure that prevented a verdict.
	Err string `json:"error,omitempty"`

	// KillErrs holds each rank's error from the restart scenario's crashed
	// phase: the victim's simulated kill, the survivors' typed collective
	// failures.
	KillErrs []error `json:"-"`
	// Reference and Finals are the per-rank final snapshots of the fault-free
	// and the recovered run. After a shrink both are indexed by post-shrink
	// current rank.
	Reference, Finals []*grace.Snapshot `json:"-"`
}

// DefaultRecovery builds the standard kill scenario: a small MLP
// classification run sized so checkpoints land mid-epoch (3 workers × 4
// iters/epoch × 2 epochs = 8 lockstep steps), checkpointing every 3 steps,
// with rank 1 dying at step 5 — between two checkpoint boundaries, so the
// rollback replays steps the victim had already taken.
func DefaultRecovery(transport, method string, mem bool, dir string) RecoveryConfig {
	ds := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 8, W: 8, N: 96, Noise: 0.3, Seed: 7})
	return RecoveryConfig{
		Train: grace.Config{
			Workers:   3,
			BatchSize: 8,
			Epochs:    2,
			Seed:      13,
			NewModel: func(seed uint64) grace.Model {
				return models.NewMLPClassifier(seed, 64, []int{24}, 4)
			},
			Dataset:      ds,
			NewOptimizer: func() optim.Optimizer { return optim.NewMomentumSGD(0.05, 0.9) },
			NewCompressor: func(rank int) (grace.Compressor, error) {
				return grace.New(method, grace.Options{Seed: uint64(rank) + 1, Ratio: 0.25, Levels: 8})
			},
			UseMemory:        mem,
			CodecParallelism: 2,
			// Run fused so a recovery also proves the fused schedule
			// recovers: checkpoints carry the policy and resume validates it.
			Fusion: grace.FusionConfig{TargetBytes: 4096},
			Net:    simnet.TCP10G,
		},
		Dir:       dir,
		Every:     3,
		KillRank:  1,
		KillStep:  5,
		Transport: transport,
	}
}

// AutotuneRecovery is the kill scenario with the workers in autotuning mode:
// a short-cadence policy over three candidates, so the 8 lockstep steps cover
// warmup probing, flush handoffs, and a scored decision, and the step-3
// checkpoint lands mid-warmup — the recovery must resume the policy
// trajectory bitwise, not just the weights. Fusion stays off (the Engine
// rejects it in tuner mode).
func AutotuneRecovery(transport, dir string) RecoveryConfig {
	cfg := DefaultRecovery(transport, "", true, dir)
	cfg.Train.NewCompressor = nil
	cfg.Train.Fusion = grace.FusionConfig{}
	workers, link := cfg.Train.Workers, cfg.Train.Net
	cfg.Train.NewTuner = func() (grace.Tuner, error) {
		return autotune.New(autotune.Config{
			Candidates: []grace.TunerCandidate{
				{Label: "none", Method: "none"},
				{Label: "topk@0.25", Method: "topk", Opts: grace.Options{Ratio: 0.25}},
				{Label: "eightbit", Method: "eightbit"},
			},
			Every:   1,
			Workers: workers,
			Link:    link,
		})
	}
	return cfg
}

// RunScenario executes one supervised fault scenario end to end: the
// fault-free reference, the faulted run recovering the way s says, and the
// comparison. The returned error reports a scenario that could not reach a
// verdict (a phase timed out, a rank failed for the wrong reason, the group
// committed the wrong membership); a reached verdict is in the result's Pass.
func RunScenario(s Scenario, cfg RecoveryConfig) (*ScenarioResult, error) {
	if err := cfg.validate(s); err != nil {
		return nil, err
	}
	res := &ScenarioResult{}
	var err error
	switch s {
	case ScenarioRestart:
		err = runRestart(cfg, res)
	case ScenarioRejoin:
		err = runRejoin(cfg, res)
	case ScenarioShrink:
		err = runShrink(cfg, res)
	case ScenarioGrow:
		err = runGrow(cfg, res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runReference trains cfg's group uninterrupted on the same transport and
// returns the per-rank finals.
func runReference(cfg RecoveryConfig) ([]*grace.Snapshot, error) {
	g, err := newGroup(cfg, ScenarioRestart, filepath.Join(cfg.Dir, "reference"))
	if err != nil {
		return nil, err
	}
	if err := g.launch("reference", scenarioWatchdog, func(int) rankOpts { return rankOpts{} }, nil); err != nil {
		return nil, err
	}
	return g.finals, g.check("reference", false, false)
}

func runRestart(cfg RecoveryConfig, res *ScenarioResult) error {
	start := time.Now()
	ref, err := runReference(cfg)
	if err != nil {
		return err
	}

	// Attempt 0: checkpoints to disk, one rank dies, the group is poisoned.
	crash, err := newGroup(cfg, ScenarioRestart, cfg.Dir)
	if err != nil {
		return err
	}
	if err := crash.launch("crash", scenarioWatchdog, crash.victimOnly, nil); err != nil {
		return err
	}
	res.KillErrs, res.KillErrors = crash.errs, errStrings(crash.errs)
	for rank, kerr := range crash.errs {
		switch {
		case rank == cfg.KillRank:
			if !errors.Is(kerr, ErrSimulatedCrash) {
				return fmt.Errorf("harness: victim rank %d error = %v, want simulated crash", rank, kerr)
			}
		case kerr == nil:
			return fmt.Errorf("harness: rank %d completed despite the crash (kill step too late?)", rank)
		case cfg.Transport == TransportTCP && !errors.Is(kerr, comm.ErrPeerDead):
			return fmt.Errorf("harness: survivor rank %d error = %v, want the liveness layer's ErrPeerDead", rank, kerr)
		}
	}

	// Restart every rank with Resume: the sync round rolls the group back to
	// the newest step every rank can load — ranks may have checkpointed
	// unevenly around the crash.
	rec, err := newGroup(cfg, ScenarioRestart, cfg.Dir)
	if err != nil {
		return err
	}
	var firstStep sync.Once
	err = rec.launch("restart", scenarioWatchdog, func(rank int) rankOpts {
		return rankOpts{resume: true, onStep: func(int64) {
			firstStep.Do(func() { res.DowntimeMs = ms(time.Since(crash.killT)) })
		}}
	}, nil)
	if err != nil {
		return err
	}
	if err := rec.check("restart", false, false); err != nil {
		return err
	}
	for _, h := range rec.heals {
		res.ResumeStep = h.step
	}
	res.Reference, res.Finals = ref, rec.finals
	res.Match, res.Detail = snapshotsBitwiseEqual(rec.finals, ref)
	res.Pass = res.Match
	res.ElapsedMs = ms(time.Since(start))
	return nil
}

func runRejoin(cfg RecoveryConfig, res *ScenarioResult) error {
	ref, err := runReference(cfg)
	if err != nil {
		return err
	}
	g, err := newGroup(cfg, ScenarioRejoin, cfg.Dir)
	if err != nil {
		return err
	}
	reforms0 := telemetry.Default.Value(telemetry.CtrGroupReforms)
	transfer0 := telemetry.Default.Value(telemetry.CtrRejoinTransferBytes)
	// The healthy ranks' goroutines — and their RunWorker calls — are never
	// touched: the supervisor respawns only the victim, into the same group.
	err = g.launch("rejoin", scenarioWatchdog, g.victimOnly, func() {
		g.replaceVictim(rankOpts{resume: true})
	})
	if err != nil {
		return err
	}
	if err := g.check("rejoin", true, true); err != nil {
		return err
	}
	res.Reforms = telemetry.Default.Value(telemetry.CtrGroupReforms) - reforms0
	res.TransferBytes = telemetry.Default.Value(telemetry.CtrRejoinTransferBytes) - transfer0
	res.Launches = g.launches
	res.Heals = len(g.heals)
	for _, h := range g.heals {
		// Max, not last: a respawned rank that joined the already-healed
		// group without driving a reform itself reports generation 0.
		res.Generation = max(res.Generation, h.gen)
		res.ResumeStep = h.step
		res.DowntimeMs = math.Max(res.DowntimeMs, ms(h.at.Sub(g.killT)))
	}
	res.Reference, res.Finals = ref, g.finals
	res.Match, res.Detail = snapshotsBitwiseEqual(g.finals, ref)
	res.Pass = res.Match
	return nil
}

func runShrink(cfg RecoveryConfig, res *ScenarioResult) error {
	n := cfg.Train.Workers
	shrinkDir := filepath.Join(cfg.Dir, "shrink")
	g, err := newGroup(cfg, ScenarioShrink, shrinkDir)
	if err != nil {
		return err
	}
	ef0 := telemetry.Default.Value(telemetry.CtrElasticEFDrops)
	// The supervisor never respawns the victim: the survivors must vote,
	// shrink, and run to completion on their own.
	if err := g.launch("shrink", scenarioWatchdog, g.victimOnly, nil); err != nil {
		return err
	}
	if err := g.check("shrink", true, false); err != nil {
		return err
	}
	res.EFDrops = telemetry.Default.Value(telemetry.CtrElasticEFDrops) - ef0
	shrunk, ok := g.lastResize(func(size int) bool { return size < n })
	if !ok || shrunk.m.Size() != n-1 {
		return fmt.Errorf("harness: shrink committed size %d, want %d", shrunk.m.Size(), n-1)
	}
	res.ShrinkStep, res.ShrinkSize, res.Lost = shrunk.step, shrunk.m.Size(), shrunk.m.Lost
	res.DowntimeMs = ms(shrunk.at.Sub(g.killT))

	// The reference replays the post-shrink run from scratch: a fresh N−1
	// group resumes from a store holding only the survivors' rollback
	// snapshots and runs to completion with no faults. Survivors in
	// original-rank order are its launch order — post-shrink current rank is
	// the index in this list — and they keep the compressors their ORIGINAL
	// rank seeded. A snapshot taken before the shrink keeps its pre-shrink
	// Workers count: that is what makes the trainer take the elastic resume
	// transform (replay the epoch from its start under the new partition),
	// the same path the survivors took.
	ref := cfg
	ref.Train.Workers = n - 1
	rg, err := newGroup(ref, ScenarioShrink, filepath.Join(cfg.Dir, "ref"))
	if err != nil {
		return err
	}
	var survivors []int
	for rank := 0; rank < n; rank++ {
		if rank == cfg.KillRank {
			continue
		}
		s, err := g.store.Load(rank, res.ShrinkStep)
		if err != nil {
			return fmt.Errorf("harness: loading rank %d step %d: %w", rank, res.ShrinkStep, err)
		}
		s.Rank = len(survivors)
		if err := rg.store.Dir.Save(s); err != nil {
			return err
		}
		survivors = append(survivors, rank)
		res.Finals = append(res.Finals, g.finals[rank])
	}
	if base := cfg.Train.NewCompressor; base != nil {
		rg.cfg.Train.NewCompressor = func(cur int) (grace.Compressor, error) { return base(survivors[cur]) }
	}
	err = rg.launch("shrink reference", scenarioWatchdog, func(int) rankOpts {
		return rankOpts{resume: true}
	}, nil)
	if err != nil {
		return err
	}
	if err := rg.check("shrink reference", false, false); err != nil {
		return err
	}
	res.Reference = rg.finals
	res.Match, res.Detail = snapshotsBitwiseEqual(res.Finals, res.Reference)
	res.Pass = res.Match
	return nil
}

func runGrow(cfg RecoveryConfig, res *ScenarioResult) error {
	n := cfg.Train.Workers
	g, err := newGroup(cfg, ScenarioGrow, filepath.Join(cfg.Dir, "grow"))
	if err != nil {
		return err
	}
	shrunk := func(size int) bool { return size < n }
	grown := func(size int) bool { return size >= n }
	// The join is sequenced against survivor progress from both sides: the
	// supervisor waits until the survivors hold a post-shrink checkpoint (so
	// the grow rolls back to a later step than the shrink did), and past the
	// gate step the survivors wait for the join request to land (so the
	// beacon is guaranteed to observe it before the run ends).
	gateStep := cfg.KillStep + 3
	joinReady := make(chan struct{}) // closed when the joiner's registration is visible
	var joinT time.Time
	survivor := func(rank int) rankOpts {
		if rank == cfg.KillRank {
			return rankOpts{victim: true}
		}
		return rankOpts{onStep: func(step int64) {
			g.mu.Lock()
			g.maxStep = max(g.maxStep, step)
			g.mu.Unlock()
			if step >= gateStep {
				<-joinReady
			}
		}}
	}
	// Supervisor: once the shrink is committed and the survivors have a
	// post-shrink checkpoint behind them, present a fresh worker under the
	// lost original rank and release the survivors' gate when the
	// registration is visible to the group. A wait that times out releases
	// the gate too; the phase then fails in check or on the size below.
	release := sync.OnceFunc(func() { close(joinReady) })
	supervisor := func() {
		defer release()
		deadline := time.Now().Add(scenarioWatchdog)
		waitFor := func(ok func() bool) bool {
			for !ok() {
				if !time.Now().Before(deadline) {
					return false
				}
				time.Sleep(2 * time.Millisecond)
			}
			return true
		}
		reached := func() bool {
			g.mu.Lock()
			defer g.mu.Unlock()
			return g.maxStep >= gateStep
		}
		if !waitFor(func() bool { _, ok := g.lastResize(shrunk); return ok }) || !waitFor(reached) {
			return
		}
		joinT = time.Now()
		joined := make(chan struct{})
		go func() {
			defer close(joined)
			g.replaceVictim(rankOpts{joiner: true})
		}()
		// The registration may already have been absorbed by the time we
		// look, so "grow committed" releases the gate too.
		waitFor(func() bool {
			_, ok := g.lastResize(grown)
			return ok || len(g.sc.pending()) > 0
		})
		release()
		<-joined
	}
	if err := g.launch("grow", 2*scenarioWatchdog, survivor, supervisor); err != nil {
		return err
	}
	if err := g.check("grow", true, true); err != nil {
		return err
	}
	sh, _ := g.lastResize(shrunk)
	gr, _ := g.lastResize(grown)
	if gr.m.Size() != n {
		return fmt.Errorf("harness: grow committed size %d, want %d", gr.m.Size(), n)
	}
	for rank, s := range g.finals {
		if s == nil {
			return fmt.Errorf("harness: rank %d has no final snapshot", rank)
		}
		if s.Workers != n {
			return fmt.Errorf("harness: rank %d finished at world size %d, want %d", rank, s.Workers, n)
		}
	}
	res.ShrinkStep, res.GrowStep, res.GrowSize = sh.step, gr.step, gr.m.Size()
	res.GrowDowntimeMs = ms(gr.at.Sub(joinT))
	res.Finals = g.finals
	res.Pass = res.GrowStep > res.ShrinkStep
	return nil
}

// snapshotsBitwiseEqual compares per-rank final params — and, in autotuning
// runs, the policy state — bit for bit.
func snapshotsBitwiseEqual(got, want []*grace.Snapshot) (bool, string) {
	for rank := range want {
		g, w := got[rank], want[rank]
		if g == nil || w == nil {
			return false, fmt.Sprintf("rank %d: missing final snapshot", rank)
		}
		if g.Step != w.Step {
			return false, fmt.Sprintf("rank %d: final step %d, want %d", rank, g.Step, w.Step)
		}
		if (g.Tuner == nil) != (w.Tuner == nil) {
			return false, fmt.Sprintf("rank %d: tuner presence %v, want %v", rank, g.Tuner != nil, w.Tuner != nil)
		}
		if g.Tuner != nil && !reflect.DeepEqual(g.Tuner, w.Tuner) {
			return false, fmt.Sprintf("rank %d: policy state diverged:\n got %+v\nwant %+v", rank, g.Tuner, w.Tuner)
		}
		if len(g.Params) != len(w.Params) {
			return false, fmt.Sprintf("rank %d: %d params, want %d", rank, len(g.Params), len(w.Params))
		}
		for i := range w.Params {
			for j := range w.Params[i].Data {
				gb := math.Float32bits(g.Params[i].Data[j])
				wb := math.Float32bits(w.Params[i].Data[j])
				if gb != wb {
					return false, fmt.Sprintf("rank %d: %s[%d] = %08x, want %08x",
						rank, w.Params[i].Name, j, gb, wb)
				}
			}
		}
	}
	return true, ""
}

// ms renders a duration as the float milliseconds the JSON rows carry.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
