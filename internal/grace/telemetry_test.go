package grace_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/grace"
	"repro/internal/telemetry"
	"repro/internal/telemetry/xrank"
)

// telInfos builds a small mixed-shape tensor set for engine telemetry tests.
func telInfos(m int) []grace.TensorInfo {
	infos := make([]grace.TensorInfo, m)
	for i := range infos {
		shape := []int{32, 4}
		if i%2 == 1 {
			shape = []int{41}
		}
		infos[i] = grace.NewTensorInfo(fmt.Sprintf("tel%d", i), shape)
	}
	return infos
}

func telGrads(rank int, infos []grace.TensorInfo) [][]float32 {
	out := make([][]float32, len(infos))
	for i, info := range infos {
		g := make([]float32, info.Size())
		for j := range g {
			g[j] = float32((j+rank*13+i*7)%101)*0.001 - 0.05
		}
		out[i] = g
	}
	return out
}

// runTelStep runs `steps` engine steps on `workers` hub workers and returns
// rank 0's last report.
func runTelStep(t *testing.T, workers, steps int, newComp func() (grace.Compressor, error)) *grace.StepReport {
	t.Helper()
	infos := telInfos(4)
	hub := comm.NewHub(workers)
	var rep *grace.StepReport
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for rank := 0; rank < workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			eng, err := grace.NewEngine(
				grace.WithCollective(hub.Worker(rank)),
				grace.WithCompressorFactory(newComp),
				grace.WithParallelism(2),
			)
			if err != nil {
				errs[rank] = err
				return
			}
			grads := telGrads(rank, infos)
			for s := 0; s < steps; s++ {
				_, r, err := eng.Step(grads, infos)
				if err != nil {
					errs[rank] = err
					return
				}
				if rank == 0 {
					rep = r
				}
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return rep
}

// TestEngineTelemetryAcrossStrategies drives one engine step per strategy
// with span recording on and checks (a) the step's phase spans land in the
// registry's phase histograms, (b) RecvBytes follows each strategy's
// semantics, and (c) the global registry's step and per-strategy byte
// counters advance by exactly what the reports claim. Assertions are deltas:
// the Default registry is process-global and other tests in this binary also
// feed it.
func TestEngineTelemetryAcrossStrategies(t *testing.T) {
	prev := telemetry.Default.Enabled()
	telemetry.Default.Enable(true)
	defer telemetry.Default.Enable(prev)

	cases := []struct {
		method   string
		opts     grace.Options
		strategy grace.Strategy
	}{
		{"none", grace.Options{}, grace.Allreduce},
		{"topk", grace.Options{Ratio: 0.25}, grace.Allgather},
		{"powersgd", grace.Options{Rank: 2}, grace.Custom},
	}
	for _, tc := range cases {
		t.Run(tc.method, func(t *testing.T) {
			const workers = 3
			stepsBefore := telemetry.Default.Value(telemetry.CtrSteps)
			sentBefore, recvBefore := telemetry.Default.StrategyBytes(int(tc.strategy))
			spans := func(p telemetry.Phase) int64 { return telemetry.Default.PhaseHistogram(p).Count() }
			collBefore := spans(telemetry.PhaseCollective)
			decBefore := spans(telemetry.PhaseDecode) + spans(telemetry.PhaseAggregate)

			rep := runTelStep(t, workers, 1, func() (grace.Compressor, error) {
				return grace.New(tc.method, tc.opts)
			})

			if rep.SentBytes <= 0 || rep.RecvBytes <= 0 {
				t.Fatalf("degenerate volume: sent=%d recv=%d", rep.SentBytes, rep.RecvBytes)
			}
			bs := rep.ByStrategy[int(tc.strategy)]
			if bs.Tensors != 4 {
				t.Fatalf("expected all 4 tensors under %v, got %+v", tc.strategy, rep.ByStrategy)
			}
			switch tc.strategy {
			case grace.Allreduce:
				// The reduced vector comes back at full dense width: recv ==
				// sent for an uncompressed allreduce.
				if rep.RecvBytes != rep.SentBytes {
					t.Fatalf("allreduce recv=%d, want %d", rep.RecvBytes, rep.SentBytes)
				}
			case grace.Allgather:
				// n-1 peers with equal payload sizes (same ratio, same L).
				if rep.RecvBytes != (workers-1)*rep.SentBytes {
					t.Fatalf("allgather recv=%d, want %d", rep.RecvBytes, (workers-1)*rep.SentBytes)
				}
			case grace.Custom:
				// Symmetric-exchange mirror.
				if rep.RecvBytes != rep.SentBytes {
					t.Fatalf("custom recv=%d, want %d", rep.RecvBytes, rep.SentBytes)
				}
			}

			if spans(telemetry.PhaseCollective) <= collBefore {
				t.Fatal("no collective span recorded")
			}
			if tc.strategy == grace.Allgather &&
				spans(telemetry.PhaseDecode)+spans(telemetry.PhaseAggregate) <= decBefore {
				t.Fatal("allgather recorded no decode/aggregate span")
			}

			if got := telemetry.Default.Value(telemetry.CtrSteps) - stepsBefore; got != workers {
				t.Fatalf("step counter advanced by %d, want %d", got, workers)
			}
			sentAfter, recvAfter := telemetry.Default.StrategyBytes(int(tc.strategy))
			// Every worker sends and receives the same volume on this
			// symmetric workload.
			if sentAfter-sentBefore != int64(workers*rep.SentBytes) {
				t.Fatalf("strategy sent delta = %d, want %d", sentAfter-sentBefore, workers*rep.SentBytes)
			}
			if recvAfter-recvBefore != int64(workers*rep.RecvBytes) {
				t.Fatalf("strategy recv delta = %d, want %d", recvAfter-recvBefore, workers*rep.RecvBytes)
			}
		})
	}
}

// TestTrainerRecvPerIter checks the trainer surfaces the receive volume:
// for a 2-worker allgather method every worker receives exactly what its one
// peer sends, so RecvPerIter must equal BytesPerIter.
func TestTrainerRecvPerIter(t *testing.T) {
	cfg := baseConfig(2, "topk", true)
	cfg.Epochs = 1
	rep, err := grace.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecvPerIter <= 0 {
		t.Fatalf("RecvPerIter = %v, want > 0", rep.RecvPerIter)
	}
	// Sent volume is the compressor's modeled WireBytes while received volume
	// counts actual gathered payload lengths, so the two can differ by a few
	// bytes of framing — but for one peer they must agree closely.
	if ratio := rep.RecvPerIter / rep.BytesPerIter; ratio < 0.98 || ratio > 1.02 {
		t.Fatalf("2-worker allgather: RecvPerIter %v vs BytesPerIter %v", rep.RecvPerIter, rep.BytesPerIter)
	}
}

// TestTrainerXRankArtifacts drives the trainer's cross-rank aggregation path:
// rank 0's merged trace must carry every rank's steps, the skew summary must
// attribute at least every other step, and the piggybacked allgathers must
// leave the trained models bitwise-identical to a run without them.
func TestTrainerXRankArtifacts(t *testing.T) {
	prev := telemetry.Default.Enabled()
	defer telemetry.Default.Enable(prev)
	defer telemetry.Default.ConfigureFlight("")

	// run trains 3 ranks with top-k + EF and returns every replica's final
	// parameters (the replicas are identical, so their order does not matter).
	run := func(xr grace.XRankConfig) (*grace.Report, [][]float32) {
		cfg := baseConfig(3, "topk", true)
		cfg.XRank = xr
		var mu sync.Mutex
		var replicas []grace.Model
		newModel := cfg.NewModel
		cfg.NewModel = func(seed uint64) grace.Model {
			m := newModel(seed)
			mu.Lock()
			replicas = append(replicas, m)
			mu.Unlock()
			return m
		}
		rep, err := grace.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var finals [][]float32
		for _, m := range replicas {
			for _, p := range m.Params() {
				finals = append(finals, p.Value.Data())
			}
		}
		return rep, finals
	}
	_, plain := run(grace.XRankConfig{})
	dir := t.TempDir()
	rep, traced := run(grace.XRankConfig{AggregateEvery: 2, ArtifactsDir: dir})

	if len(plain) != len(traced) {
		t.Fatalf("runs built %d vs %d parameter tensors", len(plain), len(traced))
	}
	for i := range plain {
		for j := range plain[i] {
			if math.Float32bits(plain[i][j]) != math.Float32bits(traced[i][j]) {
				t.Fatalf("tensor %d element %d: %v without xrank, %v with it", i, j, plain[i][j], traced[i][j])
			}
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, xrank.TraceFile))
	if err != nil {
		t.Fatal(err)
	}
	var trace []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Pid  int    `json:"pid"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("merged trace does not parse: %v", err)
	}
	stepRanks := map[int]bool{}
	for _, ev := range trace {
		if ev.Ph == "X" && strings.HasPrefix(ev.Name, "step ") {
			stepRanks[ev.Pid] = true
		}
	}
	if len(stepRanks) != 3 {
		t.Fatalf("merged trace has step events for ranks %v, want all 3", stepRanks)
	}

	raw, err = os.ReadFile(filepath.Join(dir, xrank.SkewFile))
	if err != nil {
		t.Fatal(err)
	}
	var skew xrank.SkewSummary
	if err := json.Unmarshal(raw, &skew); err != nil {
		t.Fatal(err)
	}
	if len(skew.Rows) < rep.Iters/2 {
		t.Fatalf("skew summary has %d rows for %d steps, want at least %d", len(skew.Rows), rep.Iters, rep.Iters/2)
	}
}

// TestTelemetryConcurrentEngineAndHeartbeat is the race battery: engines on
// a live heartbeat-enabled TCP ring hammer the span/counter paths from codec
// lanes, wire goroutines, and heartbeat loops, while scrapers concurrently
// read Prometheus text, snapshots, and raw counters, and a tracer serializes
// every span. Run with -race this proves the registry is data-race free end
// to end.
func TestTelemetryConcurrentEngineAndHeartbeat(t *testing.T) {
	prev := telemetry.Default.Enabled()
	telemetry.Default.Enable(true)
	defer telemetry.Default.Enable(prev)
	tr := telemetry.NewTracer(io.Discard)
	telemetry.Default.SetTracer(tr)
	defer telemetry.Default.SetTracer(nil)

	pingsBefore := telemetry.Default.Value(telemetry.CtrHeartbeatPings)
	wireBefore := telemetry.Default.Value(telemetry.CtrWireBytesSent)

	const ranks = 2
	lns, addrs := bindRingAddrs(t, ranks)

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 3; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			// Scrape on a short tick, not in a busy loop: three spinning
			// scrapers starve the heartbeat loops on a 2-CPU box (worse
			// under -race) into convicting a healthy peer. A real scraper
			// polls; the race detector needs concurrent access, not
			// saturation.
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				telemetry.Default.WritePrometheus(io.Discard)
				telemetry.Default.Snapshot()
				telemetry.Default.Value(telemetry.CtrWireBytesRecv)
			}
		}()
	}

	infos := telInfos(4)
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// A long interval: the scraper goroutines contend for CPU, and a
			// late ping loop must not convict a healthy peer within the
			// three-interval miss window.
			ring, err := comm.DialTCPRingConfig(comm.RingConfig{
				Rank: rank, Addrs: addrs, Listener: lns[rank],
				SetupTimeout: 10 * time.Second,
				OpTimeout:    30 * time.Second,
				Heartbeat:    70 * time.Millisecond,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer ring.Close()
			eng, err := grace.NewEngine(
				grace.WithCollective(ring),
				grace.WithCompressorFactory(func() (grace.Compressor, error) {
					return grace.New("topk", grace.Options{Ratio: 0.25})
				}),
				grace.WithParallelism(2),
			)
			if err != nil {
				errs[rank] = err
				return
			}
			grads := telGrads(rank, infos)
			for s := 0; s < 15; s++ {
				if _, _, err := eng.Step(grads, infos); err != nil {
					errs[rank] = err
					return
				}
			}
			// Idle past one heartbeat interval so pings provably tick even
			// when the steps themselves finish quickly.
			time.Sleep(100 * time.Millisecond)
		}(rank)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if telemetry.Default.Value(telemetry.CtrWireBytesSent) <= wireBefore {
		t.Fatal("no wire bytes counted on the TCP ring")
	}
	if telemetry.Default.Value(telemetry.CtrHeartbeatPings) <= pingsBefore {
		t.Fatal("no heartbeat pings counted")
	}
}
