package grace_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/grace"
)

// chaosDeadline fails the test if fn does not return within d: the chaos
// suite's core assertion that injected faults become typed errors, not hangs.
func chaosDeadline(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("deadlocked: engine step did not complete within deadline")
	}
}

// chaosRun drives per-worker Engines over a (possibly Faulty-wrapped) hub for
// several steps and returns each rank's final outputs, last report, and first
// error. A nil plan runs the raw hub.
func chaosRun(t *testing.T, workers, steps int, infos []grace.TensorInfo, plan *comm.Plan,
	fallback bool) ([][][]float32, []*grace.StepReport, []error) {
	t.Helper()
	hub := comm.NewHub(workers)
	outs := make([][][]float32, workers)
	reps := make([]*grace.StepReport, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for rank := 0; rank < workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var coll comm.Collective = hub.Worker(rank)
			if plan != nil {
				coll = comm.NewFaulty(coll, *plan)
			}
			eng, err := grace.NewEngine(
				grace.WithCollective(coll),
				grace.WithCompressorFactory(func() (grace.Compressor, error) { return grace.New("topk", grace.WithRatio(0.2)) }),
				grace.WithParallelism(2),
				grace.WithDecodeFallback(fallback),
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
				reps[rank] = rep
				outs[rank] = make([][]float32, len(aggs))
				for i, a := range aggs {
					outs[rank][i] = append([]float32(nil), a...)
				}
			}
		}(rank)
	}
	wg.Wait()
	return outs, reps, errs
}

// TestEngineChaosTable drives the Engine through every comm.Faulty fault kind
// and asserts the step-level contract: benign faults (delay, stall) leave the
// results bitwise identical to a fault-free run, while fatal faults (drop,
// reset) surface typed *grace.StepError values wrapping typed *comm.Error
// coordinates on every rank — within a hard deadline, never a hang.
func TestEngineChaosTable(t *testing.T) {
	const (
		workers = 3
		steps   = 4
		tensors = 6
	)
	infos := engineTestInfos(tensors)
	clean, _, cleanErrs := chaosRun(t, workers, steps, infos, nil, false)
	for rank, err := range cleanErrs {
		if err != nil {
			t.Fatalf("clean run rank %d: %v", rank, err)
		}
	}

	benign := func(t *testing.T, plan comm.Plan) {
		var outs [][][]float32
		var errs []error
		chaosDeadline(t, 30*time.Second, func() {
			outs, _, errs = chaosRun(t, workers, steps, infos, &plan, false)
		})
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: benign fault became an error: %v", rank, err)
			}
		}
		for rank := range outs {
			for ti := range infos {
				for j := range clean[rank][ti] {
					if outs[rank][ti][j] != clean[rank][ti][j] {
						t.Fatalf("rank %d tensor %d elem %d diverges from fault-free run", rank, ti, j)
					}
				}
			}
		}
	}
	fatal := func(t *testing.T, plan comm.Plan, victim int) {
		var errs []error
		chaosDeadline(t, 30*time.Second, func() {
			_, _, errs = chaosRun(t, workers, steps, infos, &plan, false)
		})
		for rank, err := range errs {
			if err == nil {
				t.Fatalf("rank %d: completed despite injected %s", rank, plan.Faults[0].Kind)
			}
			var se *grace.StepError
			if !errors.As(err, &se) {
				t.Fatalf("rank %d: error %v is not a *grace.StepError", rank, err)
			}
			if se.Phase != "collective" {
				t.Fatalf("rank %d: phase %q, want collective", rank, se.Phase)
			}
			var ce *comm.Error
			if !errors.As(err, &ce) || ce.Rank != rank {
				t.Fatalf("rank %d: error %v lacks typed comm coordinates", rank, err)
			}
		}
		if !errors.Is(errs[victim], comm.ErrInjected) {
			t.Fatalf("victim error %v should wrap ErrInjected", errs[victim])
		}
		for rank, err := range errs {
			if rank != victim && !errors.Is(err, comm.ErrAborted) {
				t.Fatalf("peer rank %d error %v should wrap ErrAborted", rank, err)
			}
		}
	}

	t.Run("delay", func(t *testing.T) {
		benign(t, comm.Plan{Faults: []comm.Fault{
			{Kind: comm.FaultDelay, Rank: 0, Op: comm.OpAllgather, Delay: 200 * time.Microsecond},
		}})
	})
	t.Run("stall", func(t *testing.T) {
		benign(t, comm.Plan{Faults: []comm.Fault{
			{Kind: comm.FaultStall, Rank: 1, Delay: 200 * time.Microsecond},
		}})
	})
	t.Run("drop", func(t *testing.T) {
		fatal(t, comm.Plan{Faults: []comm.Fault{
			{Kind: comm.FaultDrop, Rank: 1, Op: comm.OpAllgather, FromStep: 3},
		}}, 1)
	})
	t.Run("reset", func(t *testing.T) {
		fatal(t, comm.Plan{Faults: []comm.Fault{
			{Kind: comm.FaultReset, Rank: 2, Op: comm.OpAllgather, FromStep: 5},
		}}, 2)
	})
}

// rawComp is an identity Allgather codec for fault testing: payloads are the
// raw little-endian float32 bytes, except that the rank holding poison emits
// garbage for that tensor name — a deterministic stand-in for wire corruption
// that defeats decode on every rank.
type rawComp struct {
	poison string
}

func (c *rawComp) Name() string             { return "rawtest" }
func (c *rawComp) Strategy() grace.Strategy { return grace.Allgather }

func (c *rawComp) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	if info.Name == c.poison {
		return &grace.Payload{Bytes: []byte{0xDE, 0xAD}}, nil
	}
	b := make([]byte, len(g)*4)
	for i, v := range g {
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(v))
	}
	return &grace.Payload{Bytes: b}, nil
}

func (c *rawComp) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	if len(p.Bytes) != info.Size()*4 {
		return nil, fmt.Errorf("rawtest: payload is %d bytes, want %d", len(p.Bytes), info.Size()*4)
	}
	out := make([]float32, info.Size())
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(p.Bytes[i*4:]))
	}
	return out, nil
}

// runRawEngines drives 3 workers with rawComp (rank 0 optionally poisoning
// one tensor) and returns outputs, reports, errors.
func runRawEngines(t *testing.T, infos []grace.TensorInfo, poison string, fallback bool) ([][][]float32, []*grace.StepReport, []error) {
	t.Helper()
	const workers = 3
	hub := comm.NewHub(workers)
	outs := make([][][]float32, workers)
	reps := make([]*grace.StepReport, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for rank := 0; rank < workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := ""
			if rank == 0 {
				p = poison
			}
			eng, err := grace.NewEngine(
				grace.WithCollective(hub.Worker(rank)),
				grace.WithCompressorFactory(oneComp(&rawComp{poison: p})),
				grace.WithParallelism(1),
				grace.WithDecodeFallback(fallback),
			)
			if err != nil {
				errs[rank] = err
				return
			}
			aggs, rep, err := eng.Step(engineTestGrads(rank, 0, infos), infos)
			if err != nil {
				errs[rank] = err
				return
			}
			reps[rank] = rep
			outs[rank] = make([][]float32, len(aggs))
			for i, a := range aggs {
				outs[rank][i] = append([]float32(nil), a...)
			}
		}(rank)
	}
	wg.Wait()
	return outs, reps, errs
}

// TestEngineDecodeFallbackRecovers: with DecodeFallback, a payload that fails
// to decode does not kill the step — every rank agrees on the failure via the
// mask exchange, re-exchanges that tensor uncompressed, and lands on the mean
// of the raw gradients; the report counts the fault and the fallback.
func TestEngineDecodeFallbackRecovers(t *testing.T) {
	const workers = 3
	infos := engineTestInfos(4)
	poison := infos[2].Name

	var outs [][][]float32
	var reps []*grace.StepReport
	var errs []error
	chaosDeadline(t, 30*time.Second, func() {
		outs, reps, errs = runRawEngines(t, infos, poison, true)
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: fallback did not recover: %v", rank, err)
		}
	}
	for rank, rep := range reps {
		// Allgather hands rank 0's poisoned payload to everyone, so every
		// rank observes exactly one local fault and one group fallback.
		if rep.Faults != 1 || rep.Fallbacks != 1 {
			t.Fatalf("rank %d: Faults=%d Fallbacks=%d, want 1/1", rank, rep.Faults, rep.Fallbacks)
		}
	}

	// rawComp is an identity codec, so every tensor — recovered or not — must
	// equal the rank-ordered float32 mean of the raw gradients.
	grads := make([][][]float32, workers)
	for rank := range grads {
		grads[rank] = engineTestGrads(rank, 0, infos)
	}
	s := 1 / float32(workers)
	for ti, info := range infos {
		for j := 0; j < info.Size(); j++ {
			var sum float32
			for rank := 0; rank < workers; rank++ {
				sum += grads[rank][ti][j]
			}
			want := sum * s
			for rank := 0; rank < workers; rank++ {
				got := outs[rank][ti][j]
				if math.Abs(float64(got-want)) > 1e-5*math.Max(1, math.Abs(float64(want))) {
					t.Fatalf("rank %d tensor %d elem %d: got %v, want mean %v", rank, ti, j, got, want)
				}
			}
		}
	}
}

// TestEngineDecodeFailureFatalWithoutFallback: the same corruption without
// DecodeFallback is a structured, tensor-scoped step error on every rank —
// and still not a hang, because decode runs after the collectives complete.
func TestEngineDecodeFailureFatalWithoutFallback(t *testing.T) {
	infos := engineTestInfos(4)
	poison := infos[2].Name
	var errs []error
	chaosDeadline(t, 30*time.Second, func() {
		_, _, errs = runRawEngines(t, infos, poison, false)
	})
	for rank, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: decode failure went unnoticed", rank)
		}
		var se *grace.StepError
		if !errors.As(err, &se) {
			t.Fatalf("rank %d: error %v is not a *grace.StepError", rank, err)
		}
		if se.Phase != "decode" || se.Tensor != 2 || se.Name != poison {
			t.Fatalf("rank %d: error coordinates %+v, want decode/2/%s", rank, se, poison)
		}
	}
}

// TestEngineFallbackFaultFreeOverhead: with no faults, DecodeFallback changes
// nothing but the one-bitmask wire overhead — outputs stay bitwise identical.
func TestEngineFallbackFaultFreeOverhead(t *testing.T) {
	infos := engineTestInfos(4)
	plain, plainReps, errs1 := runRawEngines(t, infos, "", false)
	fb, fbReps, errs2 := runRawEngines(t, infos, "", true)
	for rank := range errs1 {
		if errs1[rank] != nil || errs2[rank] != nil {
			t.Fatalf("rank %d: %v / %v", rank, errs1[rank], errs2[rank])
		}
	}
	for rank := range plain {
		if fbReps[rank].Faults != 0 || fbReps[rank].Fallbacks != 0 {
			t.Fatalf("rank %d: phantom faults in fault-free run: %+v", rank, fbReps[rank])
		}
		maskBytes := (len(infos) + 7) / 8
		if got, want := fbReps[rank].SentBytes, plainReps[rank].SentBytes+maskBytes; got != want {
			t.Fatalf("rank %d: fallback wire volume %d, want %d (+%d mask bytes)", rank, got, want, maskBytes)
		}
		for ti := range infos {
			for j := range plain[rank][ti] {
				if plain[rank][ti][j] != fb[rank][ti][j] {
					t.Fatalf("rank %d tensor %d elem %d: fallback changed a fault-free result", rank, ti, j)
				}
			}
		}
	}
}

// boomComp fails Compress for one tensor name while armed.
type boomComp struct {
	rawComp
	armed *bool
	name  string
}

var errCompressBoom = errors.New("compress boom")

func (c *boomComp) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	if *c.armed && info.Name == c.name {
		return nil, errCompressBoom
	}
	return c.rawComp.Compress(g, info)
}

// TestEngineDrainsLanesAfterError: a failed step must leave the engine
// reusable — codec lanes and the ready queue drain cleanly, and the next
// Step on the same engine succeeds.
func TestEngineDrainsLanesAfterError(t *testing.T) {
	infos := engineTestInfos(5)
	hub := comm.NewHub(1)
	armed := true
	eng, err := grace.NewEngine(grace.WithCollective(hub.Worker(0)),
		grace.WithCompressorFactory(oneComp(&boomComp{armed: &armed, name: infos[1].Name})), grace.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	chaosDeadline(t, 30*time.Second, func() {
		_, _, err := eng.Step(engineTestGrads(0, 0, infos), infos)
		var se *grace.StepError
		if !errors.As(err, &se) || se.Phase != "compress" || se.Tensor != 1 {
			t.Fatalf("step error %v, want compress-phase StepError at tensor 1", err)
		}
		if !errors.Is(err, errCompressBoom) {
			t.Fatalf("step error %v should wrap the compressor's cause", err)
		}
		armed = false
		aggs, _, err := eng.Step(engineTestGrads(0, 1, infos), infos)
		if err != nil {
			t.Fatalf("engine unusable after a failed step: %v", err)
		}
		if len(aggs) != len(infos) {
			t.Fatalf("post-recovery step returned %d tensors, want %d", len(aggs), len(infos))
		}
	})
}

// lyingComp lies about one tensor. By default it declares one strategy and
// hands the engine the other strategy's payload form: dense floats under
// Allgather, bytes under Allreduce. With short set it sends the honest form
// and decodes one element short instead.
type lyingComp struct {
	rawComp
	strategy grace.Strategy
	liesOn   string
	short    bool
}

func (c *lyingComp) Name() string             { return "liartest" }
func (c *lyingComp) Strategy() grace.Strategy { return c.strategy }

func (c *lyingComp) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	dense := c.strategy == grace.Allreduce
	if info.Name == c.liesOn && !c.short {
		dense = !dense
	}
	if dense {
		return &grace.Payload{Dense: g}, nil
	}
	return c.rawComp.Compress(g, info)
}

func (c *lyingComp) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	out := append([]float32(nil), p.Dense...)
	if p.Dense == nil {
		var err error
		if out, err = c.rawComp.Decompress(p, info); err != nil {
			return nil, err
		}
	}
	if c.short && info.Name == c.liesOn {
		out = out[:len(out)-1]
	}
	return out, nil
}

// TestEnginePayloadContradictsStrategy: a compressor whose payload is not the
// form its declared strategy exchanges fails the step as a compress-phase
// StepError pinning the tensor and naming the method — like every other
// Engine failure — before anything reaches the collective. So does one that
// decodes short on either strategy, in the EF update's local decode (a
// compress-phase error) or in the decode of the collective's result (a
// decode-phase one), instead of indexing past the short vector or handing
// it to the caller.
func TestEnginePayloadContradictsStrategy(t *testing.T) {
	infos := engineTestInfos(4)
	for _, tc := range []struct {
		short  bool
		ef     bool
		fusion int
		phase  string
	}{
		{false, false, 0, "compress"},
		{false, false, 1 << 20, "compress"},
		{true, false, 0, "decode"},
		{true, true, 0, "compress"},
	} {
		for _, strategy := range []grace.Strategy{grace.Allreduce, grace.Allgather} {
			opts := []grace.EngineOption{
				grace.WithCollective(comm.NewHub(1).Worker(0)),
				grace.WithCompressorFactory(oneComp(&lyingComp{strategy: strategy, liesOn: infos[2].Name, short: tc.short})),
				grace.WithParallelism(1),
				grace.WithFusionBytes(tc.fusion)}
			if tc.ef {
				opts = append(opts, grace.WithEngineMemory(grace.NewMemory(1, 1)))
			}
			eng, err := grace.NewEngine(opts...)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = eng.Step(engineTestGrads(0, 0, infos), infos)
			var se *grace.StepError
			if !errors.As(err, &se) || se.Phase != tc.phase || se.Tensor != 2 || se.Name != infos[2].Name {
				t.Fatalf("%v %+v: step error %v, want a %s-phase StepError at tensor 2", strategy, tc, err, tc.phase)
			}
			if !strings.Contains(err.Error(), "liartest") {
				t.Fatalf("%v %+v: step error %q does not name the method", strategy, tc, err)
			}
		}
	}
}
