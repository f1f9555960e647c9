package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/data"
	"repro/internal/fxrand"
	"repro/internal/grace"
	"repro/internal/harness"
	"repro/internal/optim"
	"repro/internal/simnet"
)

const (
	// ranks is the closed loop's size: this sandbox has two cores, so two
	// lockstep ranks leave nothing contending beyond the ranks themselves.
	ranks = 2
	// poolSets is how many seeded gradient sets the exchange workloads cycle
	// through; generating them stays outside the timed window.
	poolSets = 8
	// warmupSteps precede every timed window of an exchange workload;
	// training warms up for one epoch instead.
	warmupSteps = 50
	// leastSteps is the shortest timed window of an exchange workload.
	leastSteps = 20
	// refSteps leading warm-up steps are checked against a hub run of the
	// same inputs.
	refSteps = 3
	// sampleEvery-th steps (and the first and last) have their aggregates
	// compared across ranks.
	sampleEvery = 500
)

// inputs is everything a workload consumes, generated from the seed alone.
type inputs struct {
	seed  uint64
	infos []grace.TensorInfo
	pool  [][ranks][][]float32 // exchange: pool[set][rank][tensor]
	bench harness.Benchmark    // training: mlpwide's model, optimizer and batch size
	ds    data.Dataset         // training: seeded images in mlpwide's input shape
}

// manySmallShapes is the fusion benchmark's layer set (bench_test.go,
// manySmallTensors): 49 tensors, nearly all small, dominated by count rather
// than bytes.
func manySmallShapes() [][]int {
	var shapes [][]int
	for i := 0; i < 12; i++ {
		shapes = append(shapes, []int{256}, []int{64}, []int{16, 16})
	}
	return append(shapes,
		[]int{64, 64}, []int{64, 64}, []int{128, 32},
		[]int{96}, []int{96}, []int{96}, []int{96},
		[]int{8, 8}, []int{8, 8}, []int{8, 8}, []int{8, 8}, []int{24}, []int{24})
}

func genInputs(w *workload, seed uint64) (*inputs, error) {
	in := &inputs{seed: seed}
	if w.many {
		for i, s := range manySmallShapes() {
			in.infos = append(in.infos, grace.NewTensorInfo(fmt.Sprintf("small%02d", i), s))
		}
	} else {
		bench, err := harness.BenchmarkByName("mlpwide")
		if err != nil {
			return nil, err
		}
		in.bench = bench
		for _, p := range bench.NewModel(seed).Params() {
			in.infos = append(in.infos, grace.NewTensorInfo(p.Name, p.Value.Shape()))
		}
	}
	if w.train {
		in.ds = data.NewImages(data.ImagesConfig{Classes: 10, C: 1, H: 16, W: 16, N: 640, Noise: 1.3, Seed: seed})
		return in, nil
	}
	rng := fxrand.New(seed)
	in.pool = make([][ranks][][]float32, poolSets)
	for s := range in.pool {
		for r := 0; r < ranks; r++ {
			in.pool[s][r] = make([][]float32, len(in.infos))
			for t, info := range in.infos {
				g := make([]float32, info.Size())
				for i := range g {
					g[i] = rng.NormFloat32() * 0.05
				}
				in.pool[s][r][t] = g
			}
		}
	}
	return in, nil
}

// group is the set of per-rank collective handles of one transport.
type group struct {
	colls    [ranks]comm.Collective
	teardown func() // makes every pending and future op fail; idempotent
	dial     time.Duration
}

func dialGroup(hub bool, seed uint64) (*group, error) {
	start := time.Now()
	g := &group{}
	if hub {
		h := comm.NewHub(ranks)
		for r := range g.colls {
			g.colls[r] = h.Worker(r)
		}
		g.teardown = func() { h.Abort(errors.New("benchmark: group torn down")) }
		g.dial = time.Since(start)
		return g, nil
	}
	// Listeners are bound first, on ports the kernel picks, and handed to
	// the ring setup, so two runs on one machine cannot collide.
	var lns [ranks]net.Listener
	addrs := make([]string, ranks)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	var rings [ranks]*comm.TCPRing
	var errs [ranks]error
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Heartbeat stays 0: no liveness side channel, two ring connections.
			rings[r], errs[r] = comm.DialTCPRingConfig(comm.RingConfig{
				Rank: r, Addrs: addrs, Listener: lns[r], SetupTimeout: 10 * time.Second, Seed: seed})
		}(r)
	}
	wg.Wait()
	g.teardown = func() {
		for _, ring := range rings {
			if ring != nil {
				ring.Close()
			}
		}
	}
	if err := errors.Join(errs[:]...); err != nil {
		g.teardown()
		return nil, err
	}
	for r := range rings {
		g.colls[r] = rings[r]
	}
	g.dial = time.Since(start)
	return g, nil
}

// lockstep runs body once per rank, each on its own goroutine, and returns
// when all have ended. A rank that fails tears the group down so its peer
// errors out of the collective it is blocked in.
func (g *group) lockstep(body func(rank int) error) error {
	var errs [ranks]error
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if errs[r] = body(r); errs[r] != nil {
				g.teardown()
			}
		}(r)
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

// runStats is what one lockstep run measured. Process-wide figures cover
// both ranks; per-step figures are rank 0's.
type runStats struct {
	steps      int
	wall       time.Duration // first rank's start to last rank's end
	stepNs     []int64       // rank 0, step boundary to step boundary
	cpu        time.Duration // user+sys of the process
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	sentBytes  float64 // rank 0's logical send volume
	rounds     int64   // rank 0's StepReport.Rounds, summed
	fused      int64   // rank 0's StepReport.FusedBuckets, summed

	sums   [ranks][]uint64 // checksums of the sampled steps' aggregates (training: final parameters)
	losses []float64       // training: rank 0's loss per step
	fails  []string        // correctness misses found inside the run
}

// instance is a workload set up on its transport: it can run lockstep steps
// repeatedly (state carries over) until closed.
type instance interface {
	// run executes at least `steps` steps; the leading `sampleFirst` steps
	// are checksummed in addition to the regular samples.
	run(steps, sampleFirst int) (*runStats, error)
	// stepBounds are the warm-up length and the shortest timed window.
	stepBounds() (warm, least int)
	dialTime() time.Duration
	close()
}

func newInstance(w *workload, in *inputs, rec *recorder) (instance, error) {
	grp, err := dialGroup(w.hub, in.seed)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		for r := range grp.colls {
			grp.colls[r] = &tracedColl{inner: grp.colls[r], r: rec.ranks[r]}
		}
	}
	if w.train {
		return &training{w: w, in: in, grp: grp, rec: rec}, nil
	}
	x := &exchange{w: w, in: in, grp: grp, rec: rec}
	for r := range x.engines {
		opts := []grace.EngineOption{
			grace.WithCollective(grp.colls[r]),
			grace.WithCompressorFactory(func() (grace.Compressor, error) { return newCompressor(w, rec, r) }),
			grace.WithParallelism(1),
			grace.WithFusionBytes(w.fusion),
		}
		if w.ef {
			opts = append(opts, grace.WithEngineMemory(grace.NewMemory(1, 1)))
		}
		if x.engines[r], err = grace.NewEngine(opts...); err != nil {
			grp.teardown()
			return nil, err
		}
	}
	return x, nil
}

func newCompressor(w *workload, rec *recorder, rank int) (grace.Compressor, error) {
	c, err := grace.New(w.method, grace.WithRatio(w.ratio))
	if err != nil || rec == nil {
		return c, err
	}
	return traceCompressor(c, rec.ranks[rank]), nil
}

// measure runs fn between process-wide readings. The collection before the
// window starts every run from the same heap state; GC percent is untouched.
func measure(st *runStats, fn func() error) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	err := fn()
	st.wall = time.Since(start)
	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.gcCycles = m1.NumGC - m0.NumGC
	st.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return err
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checksum folds the bit patterns of the vectors, in order, into 64 bits.
func checksum(vecs [][]float32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vecs {
		for _, f := range v {
			h = (h ^ uint64(math.Float32bits(f))) * 1099511628211
		}
	}
	return h
}

// sampled reports whether step i of a run has its aggregates checksummed:
// the leading sampleFirst (at least 1) steps, the last, and every 500th.
func sampled(i, steps, sampleFirst int) bool {
	return i < sampleFirst || i == steps-1 || (i+1)%sampleEvery == 0
}

// exchange drives Engine.Step directly on generated gradients.
type exchange struct {
	w       *workload
	in      *inputs
	grp     *group
	rec     *recorder
	engines [ranks]*grace.Engine
	done    int // steps run so far; picks the pool set, EF state carries over
}

func (x *exchange) dialTime() time.Duration { return x.grp.dial }
func (x *exchange) close()                  { x.grp.teardown() }
func (x *exchange) stepBounds() (int, int)  { return warmupSteps, leastSteps }

func (x *exchange) run(steps, sampleFirst int) (*runStats, error) {
	st := &runStats{steps: steps, stepNs: make([]int64, steps)}
	for r := range st.sums {
		st.sums[r] = make([]uint64, 0, steps/sampleEvery+sampleFirst+2)
	}
	var last [ranks][][]float32 // the final step's aggregates, valid until the next Step
	err := measure(st, func() error {
		return x.grp.lockstep(func(rank int) error {
			eng := x.engines[rank]
			var rr *rankRec
			if x.rec != nil {
				rr = x.rec.ranks[rank]
			}
			prev := time.Now()
			for i := 0; i < steps; i++ {
				grads := x.in.pool[(x.done+i)%poolSets][rank]
				var id int32
				var start int64
				if rr != nil {
					rr.setStep(i)
					id, start = rr.open(lGraceStep)
				}
				aggs, rep, err := eng.Step(grads, x.in.infos)
				if rr != nil {
					rr.close(lGraceStep, id, start)
				}
				if err != nil {
					return fmt.Errorf("rank %d step %d: %w", rank, i, err)
				}
				if rank == 0 {
					now := time.Now()
					st.stepNs[i] = int64(now.Sub(prev))
					prev = now
					st.sentBytes += float64(rep.SentBytes)
					st.rounds += int64(rep.Rounds)
					st.fused += int64(rep.FusedBuckets)
				}
				if sampled(i, steps, sampleFirst) {
					st.sums[rank] = append(st.sums[rank], checksum(aggs))
				}
				last[rank] = aggs
			}
			return nil
		})
	})
	if err != nil {
		return st, err
	}
	if x.w.method == "none" {
		st.fails = append(st.fails, checkDenseMean(x.in.pool[(x.done+steps-1)%poolSets], last)...)
	}
	x.done += steps
	return st, nil
}

// checkDenseMean compares every rank's aggregate of an uncompressed step
// with the float64 mean of the ranks' inputs.
func checkDenseMean(grads [ranks][][]float32, aggs [ranks][][]float32) []string {
	for t := range grads[0] {
		for i := range grads[0][t] {
			var want float64
			for r := 0; r < ranks; r++ {
				want += float64(grads[r][t][i])
			}
			want /= ranks
			for r := 0; r < ranks; r++ {
				if got := float64(aggs[r][t][i]); math.Abs(got-want) > 1e-5*math.Max(1, math.Abs(want)) {
					return []string{fmt.Sprintf("dense mean: rank %d tensor %d elem %d: got %g, float64 mean %g", r, t, i, got, want)}
				}
			}
		}
	}
	return nil
}

// training drives grace.RunWorker on mlpwide. Every run trains a fresh model
// from the seed over the persistent ring, so the loss curve of a run depends
// on the seed alone.
type training struct {
	w   *workload
	in  *inputs
	grp *group
	rec *recorder
}

func (t *training) dialTime() time.Duration { return t.grp.dial }
func (t *training) close()                  { t.grp.teardown() }

// stepBounds: one warm-up epoch, and the two epochs the loss checks need.
func (t *training) stepBounds() (int, int) { return t.stepsPerEpoch(), 2 * t.stepsPerEpoch() }

func (t *training) stepsPerEpoch() int {
	return data.NewSampler(t.in.ds.Len(), ranks, 0, t.in.seed).StepsPerEpoch(t.in.bench.BatchSize)
}

func (t *training) run(steps, _ int) (*runStats, error) {
	spe := t.stepsPerEpoch()
	epochs := (steps + spe - 1) / spe
	steps = epochs * spe
	st := &runStats{steps: steps, stepNs: make([]int64, steps)}
	var models [ranks]*benchModel
	var reports [ranks]*grace.Report
	cluster := simnet.NewCluster(simnet.TCP10G, ranks)
	err := measure(st, func() error {
		return t.grp.lockstep(func(rank int) error {
			var rr *rankRec
			tr := &trainTrace{}
			var ds data.Dataset = t.in.ds
			if t.rec != nil {
				rr = t.rec.ranks[rank]
				ds = &tracedDataset{inner: ds, r: rr}
			}
			prev := time.Now()
			cfg := grace.Config{
				Workers: ranks, BatchSize: t.in.bench.BatchSize, Epochs: epochs, Seed: t.in.seed,
				Dataset: ds, Net: simnet.TCP10G,
				UseMemory: t.w.ef, CodecParallelism: 1,
				NewModel: func(seed uint64) grace.Model {
					models[rank] = &benchModel{inner: t.in.bench.NewModel(seed), losses: make([]float64, 0, steps), r: rr, tr: tr}
					return models[rank]
				},
				NewOptimizer: func() optim.Optimizer {
					if rr == nil {
						return t.in.bench.NewOptimizer()
					}
					return &tracedOptim{Optimizer: t.in.bench.NewOptimizer(), r: rr, tr: tr}
				},
				NewCompressor: func(rank int) (grace.Compressor, error) { return newCompressor(t.w, t.rec, rank) },
				OnStep: func(rank int, step int64) error {
					if rr != nil {
						rr.close(lTrainStep, tr.stepID, tr.stepStart)
						rr.setStep(int(step))
						if int(step) < steps {
							tr.stepID, tr.stepStart = rr.open(lTrainStep)
						}
					}
					if rank == 0 {
						now := time.Now()
						st.stepNs[step-1] = int64(now.Sub(prev))
						prev = now
					}
					return nil
				},
			}
			if rr != nil {
				rr.setStep(0)
				tr.stepID, tr.stepStart = rr.open(lTrainStep)
			}
			rep, err := grace.RunWorker(cfg, rank, t.grp.colls[rank], cluster)
			if err != nil {
				return fmt.Errorf("rank %d: %w", rank, err)
			}
			reports[rank] = rep
			return nil
		})
	})
	if err != nil {
		return st, err
	}
	st.sentBytes = reports[0].BytesPerIter * float64(reports[0].Iters)
	st.rounds = int64(steps * len(t.in.infos)) // RunWorker is unfused here: one round per tensor
	st.losses = models[0].losses
	for r, m := range models {
		var vecs [][]float32
		for _, p := range m.Params() {
			vecs = append(vecs, p.Value.Data())
		}
		st.sums[r] = []uint64{checksum(vecs)}
	}
	if reports[0].Iters != steps {
		st.fails = append(st.fails, fmt.Sprintf("RunWorker ran %d iterations, want %d", reports[0].Iters, steps))
	}
	return st, nil
}
