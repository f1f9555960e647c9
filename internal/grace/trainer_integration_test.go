package grace_test

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/data"
	"repro/internal/grace"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/simnet"
)

// baseConfig builds a small image-classification run shared by the trainer
// tests.
func baseConfig(workers int, compressor string, mem bool) grace.Config {
	ds := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 8, W: 8, N: 256, Noise: 0.3, Seed: 1})
	test := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 8, W: 8, N: 64, Noise: 0.3, Seed: 1, SampleSalt: 1})
	return grace.Config{
		Workers:   workers,
		BatchSize: 16,
		Epochs:    3,
		Seed:      7,
		NewModel: func(seed uint64) grace.Model {
			return models.NewMLPClassifier(seed, 64, []int{32}, 4)
		},
		Dataset:      ds,
		NewOptimizer: func() optim.Optimizer { return optim.NewMomentumSGD(0.05, 0.9) },
		NewCompressor: func(rank int) (grace.Compressor, error) {
			return grace.New(compressor, grace.Options{Seed: uint64(rank) + 1, Ratio: 0.05})
		},
		UseMemory: mem,
		Net:       simnet.TCP10G,
		Eval: func(m grace.Model) float64 {
			return models.EvalAccuracy(m.(*models.Classifier), test, 32)
		},
	}
}

func TestTrainerBaselineConverges(t *testing.T) {
	rep, err := grace.Run(baseConfig(4, "none", false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestQuality < 0.6 {
		t.Fatalf("baseline accuracy %v too low", rep.BestQuality)
	}
	if rep.Iters != 3*(256/4/16) {
		t.Fatalf("iters = %d", rep.Iters)
	}
	if rep.Throughput <= 0 || rep.TotalVirtualTime <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if len(rep.EpochQuality) != 3 || len(rep.EpochVirtualTime) != 3 {
		t.Fatalf("epoch series lengths wrong")
	}
}

func TestTrainerDeterministic(t *testing.T) {
	a, err := grace.Run(baseConfig(2, "none", false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := grace.Run(baseConfig(2, "none", false))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.EpochQuality {
		if a.EpochQuality[i] != b.EpochQuality[i] {
			t.Fatalf("runs diverged at epoch %d: %v vs %v", i, a.EpochQuality[i], b.EpochQuality[i])
		}
	}
}

func TestTrainerTopKWithEFConverges(t *testing.T) {
	cfg := baseConfig(4, "topk", true)
	cfg.Epochs = 5
	rep, err := grace.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestQuality < 0.5 {
		t.Fatalf("topk+EF accuracy %v too low", rep.BestQuality)
	}
}

func TestTrainerTopKFullRatioMatchesBaseline(t *testing.T) {
	// Top-k with ratio 1.0 transmits everything: training must match the
	// baseline bit for bit.
	base := baseConfig(2, "none", false)
	full := baseConfig(2, "topk", false)
	full.NewCompressor = func(rank int) (grace.Compressor, error) {
		return grace.New("topk", grace.Options{Ratio: 1.0})
	}
	a, err := grace.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := grace.Run(full)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.EpochQuality {
		if a.EpochQuality[i] != b.EpochQuality[i] {
			t.Fatalf("full topk differs from baseline at epoch %d: %v vs %v",
				i, a.EpochQuality[i], b.EpochQuality[i])
		}
	}
}

func TestTrainerVolumeAccounting(t *testing.T) {
	base, err := grace.Run(baseConfig(2, "none", false))
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := grace.Run(baseConfig(2, "topk", true))
	if err != nil {
		t.Fatal(err)
	}
	if sparse.BytesPerIter >= base.BytesPerIter/5 {
		t.Fatalf("topk(0.05) bytes/iter %v not ≪ baseline %v", sparse.BytesPerIter, base.BytesPerIter)
	}
}

func TestTrainerModeledComputeAndNetwork(t *testing.T) {
	// With modeled compute, virtual time decomposes exactly and a slower
	// network must increase total time for the dense baseline. Every
	// assertion is on a modeled term: Report.Throughput also contains the
	// measured codec time, and two wall-clock measurements a few percent
	// apart order either way on a loaded machine.
	fast := baseConfig(2, "none", false)
	fast.ComputePerIter = 5 * time.Millisecond
	slow := baseConfig(2, "none", false)
	slow.ComputePerIter = 5 * time.Millisecond
	slow.Net = simnet.TCP1G

	rf, err := grace.Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := grace.Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*grace.Report{rf, rs} {
		if r.ComputeTime != time.Duration(r.Iters)*5*time.Millisecond {
			t.Fatalf("modeled compute time wrong: %v for %d iters", r.ComputeTime, r.Iters)
		}
	}
	if rs.CommTime <= rf.CommTime {
		t.Fatalf("1G comm time %v should exceed 10G %v", rs.CommTime, rf.CommTime)
	}
	modeled := func(r *grace.Report, c grace.Config) float64 {
		return float64(r.Iters*c.BatchSize*c.Workers) / (r.ComputeTime + r.CommTime).Seconds()
	}
	if tf, ts := modeled(rf, fast), modeled(rs, slow); ts >= tf {
		t.Fatalf("1G modeled throughput %v should be below 10G %v", ts, tf)
	}
}

func TestTrainerPowerSGDRuns(t *testing.T) {
	cfg := baseConfig(2, "powersgd", false)
	rep, err := grace.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestQuality < 0.4 {
		t.Fatalf("powersgd accuracy %v too low", rep.BestQuality)
	}
}

func TestTrainerAllCompressorsSmoke(t *testing.T) {
	// Every registered method must run end to end (1 epoch, 2 workers).
	for _, name := range grace.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			meta, err := grace.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := baseConfig(2, name, meta.DefaultEF && !meta.BuiltinEF)
			cfg.Epochs = 1
			rep, err := grace.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rep.Iters == 0 || rep.BytesPerIter <= 0 {
				t.Fatalf("%s: degenerate run %+v", name, rep)
			}
		})
	}
}

func TestTrainerRejectsBadConfig(t *testing.T) {
	if _, err := grace.Run(grace.Config{}); err == nil {
		t.Fatal("expected error for empty config")
	}
	cfg := baseConfig(0, "none", false)
	if _, err := grace.Run(cfg); err == nil {
		t.Fatal("expected error for zero workers")
	}
}

func TestTrainerLowerIsBetterQuality(t *testing.T) {
	cfg := baseConfig(2, "none", false)
	cfg.QualityLowerIsBetter = true
	// Quality = 1 - accuracy, decreasing over training.
	inner := cfg.Eval
	cfg.Eval = func(m grace.Model) float64 { return 1 - inner(m) }
	rep, err := grace.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	min := rep.EpochQuality[0]
	for _, q := range rep.EpochQuality {
		if q < min {
			min = q
		}
	}
	if rep.BestQuality != min {
		t.Fatalf("BestQuality %v != min epoch quality %v", rep.BestQuality, min)
	}
}

func TestTrainerParamServer(t *testing.T) {
	// The parameter-server topology must produce identical training results
	// (same aggregates) but, in the bandwidth-bound regime (large gradient,
	// many workers), lower throughput than the ring: the server link
	// serializes 2N payloads. (For tiny latency-bound tensors the star's two
	// hops can win — that regime is covered by the simnet tests.)
	wideModel := func(seed uint64) grace.Model {
		return models.NewMLPClassifier(seed, 64, []int{4096}, 4)
	}
	ring := baseConfig(8, "none", false)
	ring.ComputePerIter = 100 * time.Microsecond
	ring.NewModel = wideModel
	star := baseConfig(8, "none", false)
	star.ComputePerIter = 100 * time.Microsecond
	star.NewModel = wideModel
	star.ParamServer = true

	rr, err := grace.Run(ring)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := grace.Run(star)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rr.EpochQuality {
		if rr.EpochQuality[i] != rs.EpochQuality[i] {
			t.Fatalf("topologies diverged at epoch %d", i)
		}
	}
	if rs.Throughput >= rr.Throughput {
		t.Fatalf("param server throughput %v should trail ring %v", rs.Throughput, rr.Throughput)
	}
}

func TestTrainerLocalSGD(t *testing.T) {
	// Qsparse-local-SGD: syncing every H steps must cut communication
	// volume by ~H while still converging.
	perStep := baseConfig(4, "topk", true)
	perStep.Epochs = 5
	local := baseConfig(4, "topk", true)
	local.Epochs = 5
	local.SyncEvery = 4

	rp, err := grace.Run(perStep)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := grace.Run(local)
	if err != nil {
		t.Fatal(err)
	}
	if rl.BytesPerIter >= rp.BytesPerIter/2 {
		t.Fatalf("local SGD bytes/iter %v not well below per-step %v", rl.BytesPerIter, rp.BytesPerIter)
	}
	if rl.BestQuality < 0.5 {
		t.Fatalf("local SGD failed to converge: %v", rl.BestQuality)
	}
}

func TestTrainerLocalSGDWithBaselineMatchesAveraging(t *testing.T) {
	// With the identity compressor and H=2, workers follow classic periodic
	// parameter averaging; replicas must re-converge at every sync (the run
	// stays deterministic and healthy).
	cfg := baseConfig(2, "none", false)
	cfg.SyncEvery = 2
	rep, err := grace.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestQuality < 0.5 {
		t.Fatalf("periodic averaging accuracy %v", rep.BestQuality)
	}
}

func TestMajorityVoteAggregation(t *testing.T) {
	// With 3 workers voting {+1, +1, -1} on one coordinate, the default
	// mean aggregation would yield 1/3; the majority-vote Agg must yield
	// exactly +1 on every worker.
	hub := comm.NewHub(3)
	info := grace.NewTensorInfo("t", []int{2})
	inputs := [][]float32{{1, -1}, {2, -2}, {-3, -3}}
	out := make([][]float32, 3)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for rank := 0; rank < 3; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := grace.New("signsgdmv", grace.Options{})
			if err != nil {
				errs[rank] = err
				return
			}
			pipe := &grace.Pipeline{Comp: c, Coll: hub.Worker(rank)}
			out[rank], _, errs[rank] = pipe.Exchange(inputs[rank], info)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if out[rank][0] != 1 || out[rank][1] != -1 {
			t.Fatalf("rank %d majority vote got %v, want [1 -1]", rank, out[rank])
		}
	}
}

// failOnThirdUse is a compressor that breaks the third time it sees any one
// tensor, i.e. in the worker's third step.
type failOnThirdUse struct {
	grace.Compressor
	seen map[string]int
}

var errCodecBroke = errors.New("codec broke")

func (c *failOnThirdUse) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	if c.seen[info.Name]++; c.seen[info.Name] == 3 {
		return nil, errCodecBroke
	}
	return c.Compressor.Compress(g, info)
}

// TestRunReturnsWorkerError: one rank's compressor failing mid-run must come
// back from Run as an error naming the cause — the peers, parked in the
// step's collective, are released by the hub abort rather than left waiting —
// and every worker goroutine must have unwound by then.
func TestRunReturnsWorkerError(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := baseConfig(3, "topk", true)
	inner := cfg.NewCompressor
	cfg.NewCompressor = func(rank int) (grace.Compressor, error) {
		c, err := inner(rank)
		if rank == 1 && err == nil {
			c = &failOnThirdUse{Compressor: c, seen: map[string]int{}}
		}
		return c, err
	}
	done := make(chan error, 1)
	go func() {
		_, err := grace.Run(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errCodecBroke) || !strings.Contains(err.Error(), "worker 1") {
			t.Fatalf("Run returned %v, want worker 1's error wrapping %v", err, errCodecBroke)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after a worker failed: the peers are stuck in a collective")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run returned, %d before it started", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTrainerRejectsBadCompressorConfig(t *testing.T) {
	cfg := baseConfig(2, "none", false)
	cfg.NewCompressor = func(rank int) (grace.Compressor, error) {
		return grace.New("topk", grace.Options{Ratio: 5}) // invalid ratio
	}
	if _, err := grace.Run(cfg); err == nil {
		t.Fatal("expected error for invalid compressor options")
	}
}
