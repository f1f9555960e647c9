package grace_test

import (
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/grace"
	"repro/internal/grace/autotune"
	"repro/internal/simnet"
)

// tunerTestPolicy builds the autotune policy used throughout the engine-level
// tuner tests: three candidates spanning the strategies (dense allreduce,
// sparse allgather, quantized allgather) with a short decision period so a
// handful of steps crosses warmup into scored decisions.
func tunerTestPolicy(t *testing.T, workers, every int) *autotune.Policy {
	t.Helper()
	return tunerPolicyOver(t, workers, every, tunerTestCandidates)
}

var tunerTestCandidates = []grace.TunerCandidate{
	{Label: "none", Method: "none"},
	{Label: "topk@0.05", Method: "topk", Opts: grace.Options{Ratio: 0.05}},
	{Label: "eightbit", Method: "eightbit"},
}

// tunerPolicyOver is tunerTestPolicy's policy over another candidate list.
func tunerPolicyOver(t *testing.T, workers, every int, cands []grace.TunerCandidate) *autotune.Policy {
	t.Helper()
	p, err := autotune.New(autotune.Config{
		Candidates: cands,
		Every:      every,
		Link:       simnet.TCP1G,
		Workers:    workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tunerStepTrace is one rank's record of one step's policy-visible outcome.
type tunerStepTrace struct {
	Switches int
	Flushes  int
	Labels   []string
	Aggs     [][]float32
}

// tunerTrace is one rank's whole-run policy trajectory.
type tunerTrace struct {
	Steps []tunerStepTrace
	Final *grace.TunerState
}

// runTunedGroup drives `workers` autotuning engines in lockstep over the
// collectives `collFor` hands out, recording every rank's per-step policy
// trajectory and final tuner state.
func runTunedGroup(t *testing.T, workers, steps, every int, ef bool,
	collFor func(rank int) comm.Collective) []tunerTrace {
	t.Helper()
	infos := engineTestInfos(9)
	traces := make([]tunerTrace, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for rank := 0; rank < workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var mem *grace.Memory
			if ef {
				mem = grace.NewMemory(1, 1)
			}
			eng, err := grace.NewEngine(
				grace.WithCollective(collFor(rank)),
				grace.WithTuner(tunerTestPolicy(t, workers, every)),
				grace.WithEngineMemory(mem),
				grace.WithParallelism(2),
			)
			if err != nil {
				errs[rank] = err
				return
			}
			for step := 0; step < steps; step++ {
				aggs, rep, err := eng.Step(engineTestGrads(rank, step, infos), infos)
				if err != nil {
					errs[rank] = err
					return
				}
				tr := tunerStepTrace{
					Switches: rep.Switches,
					Flushes:  rep.Flushes,
					Labels:   append([]string(nil), rep.PolicyByTensor...),
					Aggs:     make([][]float32, len(aggs)),
				}
				for i, a := range aggs {
					tr.Aggs[i] = append([]float32(nil), a...)
				}
				traces[rank].Steps = append(traces[rank].Steps, tr)
			}
			traces[rank].Final = eng.TunerState()
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return traces
}

// requireLockstep asserts every rank's trajectory is bitwise identical to
// rank 0's: same per-step switch/flush counts, same per-tensor policy labels,
// same aggregates, same final policy state.
func requireLockstep(t *testing.T, traces []tunerTrace) {
	t.Helper()
	ref := traces[0]
	for rank := 1; rank < len(traces); rank++ {
		tr := traces[rank]
		if len(tr.Steps) != len(ref.Steps) {
			t.Fatalf("rank %d ran %d steps, rank 0 ran %d", rank, len(tr.Steps), len(ref.Steps))
		}
		for s := range tr.Steps {
			if tr.Steps[s].Switches != ref.Steps[s].Switches || tr.Steps[s].Flushes != ref.Steps[s].Flushes {
				t.Fatalf("rank %d step %d: %d switches/%d flushes, rank 0 has %d/%d",
					rank, s, tr.Steps[s].Switches, tr.Steps[s].Flushes,
					ref.Steps[s].Switches, ref.Steps[s].Flushes)
			}
			if !reflect.DeepEqual(tr.Steps[s].Labels, ref.Steps[s].Labels) {
				t.Fatalf("rank %d step %d policy %v, rank 0 policy %v", rank, s, tr.Steps[s].Labels, ref.Steps[s].Labels)
			}
			for ti := range tr.Steps[s].Aggs {
				for j := range tr.Steps[s].Aggs[ti] {
					if tr.Steps[s].Aggs[ti][j] != ref.Steps[s].Aggs[ti][j] {
						t.Fatalf("rank %d step %d tensor %d elem %d disagrees with rank 0", rank, s, ti, j)
					}
				}
			}
		}
		if !reflect.DeepEqual(tr.Final, ref.Final) {
			t.Fatalf("rank %d final policy state diverged:\n%+v\nvs rank 0:\n%+v", rank, tr.Final, ref.Final)
		}
	}
}

// requirePolicyEqual asserts two substrates produced the identical policy
// trajectory (labels, switch counts, final state; aggregates are substrate-
// independent too, but only the policy sequence is the determinism contract).
func requirePolicyEqual(t *testing.T, name string, got, want []tunerTrace) {
	t.Helper()
	for rank := range got {
		for s := range got[rank].Steps {
			if !reflect.DeepEqual(got[rank].Steps[s].Labels, want[rank].Steps[s].Labels) ||
				got[rank].Steps[s].Switches != want[rank].Steps[s].Switches ||
				got[rank].Steps[s].Flushes != want[rank].Steps[s].Flushes {
				t.Fatalf("%s: rank %d step %d policy %v (%d sw/%d fl) != reference %v (%d sw/%d fl)",
					name, rank, s, got[rank].Steps[s].Labels, got[rank].Steps[s].Switches, got[rank].Steps[s].Flushes,
					want[rank].Steps[s].Labels, want[rank].Steps[s].Switches, want[rank].Steps[s].Flushes)
			}
		}
		if !reflect.DeepEqual(got[rank].Final, want[rank].Final) {
			t.Fatalf("%s: rank %d final policy state diverged from reference", name, rank)
		}
	}
}

// bindRingAddrs binds n loopback listeners on ports the kernel picks, one
// per rank, to be handed to that rank's ring (RingConfig.Listener), which
// owns it from then on. The cleanup closes any listener never handed over.
func bindRingAddrs(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	return lns, addrs
}

// TestTunedLockstepSubstrates is the autotune determinism proof: the policy
// trajectory — per-step candidate labels, switch and flush counts, final
// policy state — is bitwise identical (a) across ranks, (b) across transport
// substrates (in-process hub vs real TCP ring), and (c) under chaos-injected
// network delays, which perturb wall-clock timing but none of the
// rank-identical inputs decisions are allowed to depend on. Run under -race
// via `make race`.
func TestTunedLockstepSubstrates(t *testing.T) {
	const (
		workers = 3
		steps   = 13
		every   = 2
	)
	hub := comm.NewHub(workers)
	ref := runTunedGroup(t, workers, steps, every, true, func(rank int) comm.Collective {
		return hub.Worker(rank)
	})
	requireLockstep(t, ref)

	var switches, flushes int
	for _, st := range ref[0].Steps {
		switches += st.Switches
		flushes += st.Flushes
	}
	if switches == 0 {
		t.Fatal("no switches over 13 steps — warmup probing never engaged")
	}
	if flushes == 0 {
		t.Fatal("no EF flush handoffs despite switches under error feedback")
	}
	if ref[0].Final.Step != steps || ref[0].Final.Switches == 0 {
		t.Fatalf("final policy state %+v does not reflect the run", ref[0].Final)
	}

	t.Run("tcp-ring", func(t *testing.T) {
		lns, addrs := bindRingAddrs(t, workers)
		rings := make([]*comm.TCPRing, workers)
		var dial sync.WaitGroup
		dialErrs := make([]error, workers)
		for rank := 0; rank < workers; rank++ {
			dial.Add(1)
			go func(rank int) {
				defer dial.Done()
				r, err := comm.DialTCPRingConfig(comm.RingConfig{Rank: rank, Addrs: addrs, Listener: lns[rank], SetupTimeout: 5 * time.Second})
				rings[rank] = r
				dialErrs[rank] = err
			}(rank)
		}
		dial.Wait()
		for rank, err := range dialErrs {
			if err != nil {
				t.Fatalf("dial rank %d: %v", rank, err)
			}
			defer rings[rank].Close()
		}
		got := runTunedGroup(t, workers, steps, every, true, func(rank int) comm.Collective {
			return rings[rank]
		})
		requireLockstep(t, got)
		requirePolicyEqual(t, "tcp-ring vs hub", got, ref)
	})

	t.Run("chaos-delays", func(t *testing.T) {
		chaosHub := comm.NewHub(workers)
		plan := comm.Plan{Seed: 7, Faults: []comm.Fault{
			{Kind: comm.FaultDelay, Rank: comm.AnyRank, Prob: 0.4, Delay: 2 * time.Millisecond},
			{Kind: comm.FaultDelay, Rank: 1, Prob: 0.8, Delay: 5 * time.Millisecond},
		}}
		got := runTunedGroup(t, workers, steps, every, true, func(rank int) comm.Collective {
			return comm.NewFaulty(chaosHub.Worker(rank), plan)
		})
		requireLockstep(t, got)
		requirePolicyEqual(t, "chaos vs clean hub", got, ref)
	})
}

// TestTunedEngineNoMemory: without error-feedback memory there is no residual
// to hand off, so switches must not produce flush steps, and the run stays in
// lockstep.
func TestTunedEngineNoMemory(t *testing.T) {
	const workers = 2
	hub := comm.NewHub(workers)
	traces := runTunedGroup(t, workers, 9, 2, false, func(rank int) comm.Collective {
		return hub.Worker(rank)
	})
	requireLockstep(t, traces)
	var switches, flushes int
	for _, st := range traces[0].Steps {
		switches += st.Switches
		flushes += st.Flushes
	}
	if switches == 0 {
		t.Fatal("no switches — warmup probing never engaged")
	}
	if flushes != 0 {
		t.Fatalf("memoryless run reported %d flush steps", flushes)
	}
}

// TestTunedEngineResume checks the kill/restart contract at engine level: a
// run checkpointed mid-stream (tuner state + EF memory) and resumed into
// fresh engines replays the identical policy trajectory and aggregates,
// bitwise, as the uninterrupted reference.
func TestTunedEngineResume(t *testing.T) {
	// The second run probes a randomized candidate in the warmup window the
	// cut splits: the switch step 3 flushes, steps 4 and 5 draw its stream on
	// either side of the cut.
	withRandomK := []grace.TunerCandidate{tunerTestCandidates[0],
		{Label: "randomk@0.25", Method: "randomk", Opts: grace.Options{Ratio: 0.25, Seed: 7}},
		tunerTestCandidates[1], tunerTestCandidates[2]}
	t.Run("stateless", func(t *testing.T) { testTunedEngineResume(t, tunerTestCandidates, 2) })
	t.Run("randomk", func(t *testing.T) { testTunedEngineResume(t, withRandomK, 3) })
}

func testTunedEngineResume(t *testing.T, cands []grace.TunerCandidate, every int) {
	const (
		workers = 2
		steps   = 10
		cut     = 5
	)
	infos := engineTestInfos(6)

	type phase struct {
		eng *grace.Engine
		mem *grace.Memory
	}
	run := func(engs []phase, from, to int) []tunerTrace {
		traces := make([]tunerTrace, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for rank := 0; rank < workers; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				for step := from; step < to; step++ {
					aggs, rep, err := engs[rank].eng.Step(engineTestGrads(rank, step, infos), infos)
					if err != nil {
						errs[rank] = err
						return
					}
					tr := tunerStepTrace{Switches: rep.Switches, Flushes: rep.Flushes,
						Labels: append([]string(nil), rep.PolicyByTensor...)}
					for _, a := range aggs {
						tr.Aggs = append(tr.Aggs, append([]float32(nil), a...))
					}
					traces[rank].Steps = append(traces[rank].Steps, tr)
				}
				traces[rank].Final = engs[rank].eng.TunerState()
			}(rank)
		}
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", rank, err)
			}
		}
		return traces
	}
	build := func(hub *comm.Hub) []phase {
		engs := make([]phase, workers)
		for rank := 0; rank < workers; rank++ {
			mem := grace.NewMemory(1, 1)
			eng, err := grace.NewEngine(
				grace.WithCollective(hub.Worker(rank)),
				grace.WithTuner(tunerPolicyOver(t, workers, every, cands)),
				grace.WithEngineMemory(mem),
			)
			if err != nil {
				t.Fatal(err)
			}
			engs[rank] = phase{eng: eng, mem: mem}
		}
		return engs
	}

	ref := run(build(comm.NewHub(workers)), 0, steps)

	first := build(comm.NewHub(workers))
	pre := run(first, 0, cut)
	resumed := build(comm.NewHub(workers))
	for rank := range resumed {
		resumed[rank].mem.LoadState(first[rank].mem.State())
		if err := resumed[rank].eng.LoadTunerState(first[rank].eng.TunerState()); err != nil {
			t.Fatalf("rank %d restore: %v", rank, err)
		}
		if err := resumed[rank].eng.LoadCodecState(first[rank].eng.CodecState()); err != nil {
			t.Fatalf("rank %d codec restore: %v", rank, err)
		}
	}
	post := run(resumed, cut, steps)

	for rank := 0; rank < workers; rank++ {
		full := append(append([]tunerStepTrace(nil), pre[rank].Steps...), post[rank].Steps...)
		if len(full) != len(ref[rank].Steps) {
			t.Fatalf("rank %d: spliced run has %d steps, reference %d", rank, len(full), len(ref[rank].Steps))
		}
		for s := range full {
			if !reflect.DeepEqual(full[s].Labels, ref[rank].Steps[s].Labels) ||
				full[s].Switches != ref[rank].Steps[s].Switches {
				t.Fatalf("rank %d step %d: resumed policy %v (%d sw) != reference %v (%d sw)",
					rank, s, full[s].Labels, full[s].Switches,
					ref[rank].Steps[s].Labels, ref[rank].Steps[s].Switches)
			}
			if !reflect.DeepEqual(full[s].Aggs, ref[rank].Steps[s].Aggs) {
				t.Fatalf("rank %d step %d: resumed aggregates diverge from reference", rank, s)
			}
		}
		if !reflect.DeepEqual(post[rank].Final, ref[rank].Final) {
			t.Fatalf("rank %d final policy state diverged after resume", rank)
		}
	}
}

// emptyTuner is a Tuner with no candidates, for validation tests.
type emptyTuner struct{}

func (emptyTuner) Candidates() []grace.TunerCandidate { return nil }
func (emptyTuner) Sig() string                        { return "empty" }
func (emptyTuner) Init([]grace.TensorInfo) error      { return nil }
func (emptyTuner) Plan([]grace.TunerAssign) int       { return 0 }
func (emptyTuner) Observe([]grace.TunerObs)           {}
func (emptyTuner) State() *grace.TunerState           { return &grace.TunerState{Sig: "empty"} }
func (emptyTuner) LoadState(*grace.TunerState) error  { return nil }

func TestTunedEngineValidation(t *testing.T) {
	coll := comm.Serial{}
	mustPolicy := func(cands []grace.TunerCandidate) *autotune.Policy {
		p, err := autotune.New(autotune.Config{Candidates: cands, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	if _, err := grace.NewEngine(
		grace.WithCollective(coll),
		grace.WithTuner(tunerTestPolicy(t, 1, 2)),
		grace.WithFusion(grace.FusionConfig{TargetBytes: 1 << 20}),
	); err == nil {
		t.Fatal("autotuning with fusion enabled should be rejected")
	}
	if _, err := grace.NewEngine(grace.WithCollective(coll), grace.WithTuner(emptyTuner{})); err == nil {
		t.Fatal("tuner with no candidates should be rejected")
	}
	if _, err := grace.NewEngine(
		grace.WithCollective(coll),
		grace.WithTuner(mustPolicy([]grace.TunerCandidate{
			{Label: "dgc", Method: "dgc", Opts: grace.Options{Ratio: 0.25}},
		})),
	); err == nil {
		t.Fatal("candidate with per-tensor codec state (dgc) should be rejected")
	}
	if _, err := grace.NewEngine(
		grace.WithCollective(coll),
		grace.WithTuner(mustPolicy([]grace.TunerCandidate{
			{Label: "qsgd", Method: "qsgd", Opts: grace.Options{Levels: 8, Seed: 1}},
		})),
	); err != nil {
		t.Fatalf("candidate with only a random stream (qsgd) rejected: %v", err)
	}
	if _, err := grace.NewEngine(
		grace.WithCollective(coll),
		grace.WithTuner(mustPolicy([]grace.TunerCandidate{
			{Label: "powersgd", Method: "powersgd", Opts: grace.Options{Rank: 2}},
		})),
	); err == nil {
		t.Fatal("Custom-strategy candidate (powersgd) should be rejected")
	}
}

// TestTunedEngineStatePresence pins the checkpoint presence contract: tuner
// state must exist exactly when the engine autotunes, and Method() reports
// the policy signature so checkpoint validation pins the whole configuration.
func TestTunedEngineStatePresence(t *testing.T) {
	coll := comm.Serial{}
	fixed, err := grace.NewEngine(grace.WithCollective(coll),
		grace.WithCompressorFactory(oneComp(mustComp(t, "none"))), grace.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := fixed.TunerState(); st != nil {
		t.Fatalf("fixed-method engine reports tuner state %+v", st)
	}
	if err := fixed.LoadTunerState(&grace.TunerState{Sig: "x"}); err == nil {
		t.Fatal("fixed-method engine accepted tuner state")
	}
	if err := fixed.LoadTunerState(nil); err != nil {
		t.Fatalf("fixed-method engine rejected absent tuner state: %v", err)
	}

	pol := tunerTestPolicy(t, 1, 2)
	tuned, err := grace.NewEngine(grace.WithCollective(coll), grace.WithTuner(pol))
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Method() != pol.Sig() {
		t.Fatalf("tuned engine Method() = %q, want policy sig %q", tuned.Method(), pol.Sig())
	}
	if err := tuned.LoadTunerState(nil); err == nil {
		t.Fatal("tuned engine accepted a checkpoint without policy state")
	}
	st := tuned.TunerState()
	if st == nil || st.Sig != pol.Sig() {
		t.Fatalf("tuned engine state %+v does not carry the policy sig", st)
	}
}

// obsTuner is scriptTuner keeping the last observations the engine fed back.
type obsTuner struct {
	scriptTuner
	last []grace.TunerObs
}

func (o *obsTuner) Observe(obs []grace.TunerObs) {
	o.last = append(o.last[:0], obs...)
	o.scriptTuner.Observe(obs)
}

// TestTunedFlushStepIsIdentityExchange pins the EF flush handoff from the
// outside, on a multi-rank group: a flushed tensor travels as one dense
// allreduce of its compensated gradient (4·d bytes each way, no gather
// sizes), every rank applies the mean of the ranks' compensated gradients,
// the residual is left bit-exactly zero, and the policy is told so — the
// contract the flush codec inherits from the hand-written handoff it
// replaced.
func TestTunedFlushStepIsIdentityExchange(t *testing.T) {
	const (
		workers  = 2
		switchAt = 2
	)
	infos := engineTestInfos(5)
	hub := comm.NewHub(workers)
	tuners := make([]*obsTuner, workers)
	mems := make([]*grace.Memory, workers)
	engs := make([]*grace.Engine, workers)
	for rank := range engs {
		tuners[rank] = &obsTuner{scriptTuner: scriptTuner{
			cands: []grace.TunerCandidate{
				{Label: "topk", Method: "topk", Opts: grace.Options{Ratio: 0.1}},
				{Label: "eightbit", Method: "eightbit"},
			},
			switchAt: switchAt,
			flush:    true,
		}}
		mems[rank] = grace.NewMemory(1, 1)
		eng, err := grace.NewEngine(
			grace.WithCollective(hub.Worker(rank)),
			grace.WithTuner(tuners[rank]),
			grace.WithEngineMemory(mems[rank]),
			grace.WithParallelism(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		engs[rank] = eng
	}

	for step := 0; step <= switchAt+1; step++ {
		// What the flush must deliver: the mean, summed in rank order, of the
		// gradients compensated with the residuals the ranks hold right now.
		comps := make([][][]float32, workers)
		for rank := range comps {
			shadow := grace.NewMemory(1, 1)
			shadow.LoadState(mems[rank].State())
			for i, g := range engineTestGrads(rank, step, infos) {
				comps[rank] = append(comps[rank], shadow.Compensate(infos[i].Name, g))
			}
		}

		aggs := make([][][]float32, workers)
		reps := make([]*grace.StepReport, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for rank := range engs {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				aggs[rank], reps[rank], errs[rank] = engs[rank].Step(engineTestGrads(rank, step, infos), infos)
			}(rank)
		}
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("step %d rank %d: %v", step, rank, err)
			}
		}

		flush, wantFlushes := step == switchAt, 0
		if flush {
			wantFlushes = len(infos)
		}
		for rank, rep := range reps {
			if rep.Flushes != wantFlushes {
				t.Fatalf("step %d rank %d ran %d flush handoffs, want %d", step, rank, rep.Flushes, wantFlushes)
			}
			for i, o := range tuners[rank].last {
				if o.Flush != flush {
					t.Fatalf("step %d rank %d tensor %d: policy observed Flush=%v", step, rank, i, o.Flush)
				}
			}
			if !flush {
				continue
			}
			if got := rep.ByStrategy[grace.Allreduce].Tensors; got != len(infos) {
				t.Fatalf("flush step rank %d: %d allreduce tensors, want %d", rank, got, len(infos))
			}
			state := mems[rank].State()
			for i, info := range infos {
				wire := 4 * info.Size()
				st := rep.Tensors[i]
				if st.Strategy != grace.Allreduce || st.SentBytes != wire || st.RecvBytes != wire || st.GatherSizes != nil {
					t.Fatalf("flush step rank %d tensor %d: stats %+v, want a dense allreduce of %d bytes", rank, i, st, wire)
				}
				wantObs := grace.TunerObs{Cand: 1, Flush: true, Strategy: grace.Allreduce, ExchBytes: int64(wire)}
				if got := tuners[rank].last[i]; got != wantObs {
					t.Fatalf("flush step rank %d tensor %d: policy observed %+v, want %+v", rank, i, got, wantObs)
				}
				for j, r := range state[info.Name] {
					if math.Float32bits(r) != 0 {
						t.Fatalf("flush step rank %d tensor %d elem %d: residual %v is not +0", rank, i, j, r)
					}
				}
				for j, got := range aggs[rank][i] {
					if want := (comps[0][i][j] + comps[1][i][j]) * (1 / float32(workers)); got != want {
						t.Fatalf("flush step rank %d tensor %d elem %d: applied %v, mean of compensated gradients %v",
							rank, i, j, got, want)
					}
				}
			}
		}
	}
}
