package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/grace"
)

// benchmarkJSON mirrors the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the names, units,
// directions and bounds compiled into the benchmark identical, in both
// directions, and inside the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name)
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the benchmark %q / %q",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	sameDefs := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			checkName(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
			if got[i] != d {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], d)
			}
		}
	}
	sameDefs("end_to_end", spec.EndToEnd, endToEnd)
	sameDefs("per_layer", spec.PerLayer, perLayer)
	largest := 0.0
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		largest = math.Max(largest, d.Bound)
	}
	if unitOf(endToEnd, "setup_s") != "s" || endToEnd[len(endToEnd)-1].Bound != largest {
		t.Errorf("setup_s must be in seconds and carry the largest bound")
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

// TestSmoke runs every workload the way -smoke does, untraced and traced,
// and checks that each passes its oracle and reports exactly the metrics
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	spec := readBenchmarkJSON(t)
	opts := options{seed: 1, seconds: 0.3, setupReps: 1, out: t.TempDir()}
	for i := range workloads {
		w := &workloads[i]
		for _, opts.traced = range []bool{false, true} {
			info, res, err := runWorkload(w, opts)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, opts.traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					w.Name, opts.traced, res.Correct, res.Attempted, res.Failed, info.Checks)
			}
			want := spec.EndToEnd
			if opts.traced {
				want = spec.PerLayer
				if _, err := os.Stat(info.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", w.Name, err)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, opts.traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s is in BENCHMARK.json but was not emitted", w.Name, opts.traced, d.Name)
				} else if v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v %q, want a finite number in %q", w.Name, opts.traced, d.Name, v.Value, v.Unit, d.Unit)
				}
			}
			if !opts.traced {
				for _, d := range want {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

// TestTracedRunTakesTheSamePath runs the same steps on the same inputs with
// and without the wrappers: aggregates are bitwise identical, wire volume is
// equal, and the traced collective count equals the engine's round count.
func TestTracedRunTakesTheSamePath(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			const steps = 12
			in, err := genInputs(w, 5)
			if err != nil {
				t.Fatal(err)
			}
			runOnce := func(rec *recorder) *runStats {
				inst, err := newInstance(w, in, rec)
				if err != nil {
					t.Fatal(err)
				}
				defer inst.close()
				st, err := inst.run(steps, steps)
				if err != nil {
					t.Fatal(err)
				}
				if len(st.fails) > 0 {
					t.Error(st.fails)
				}
				return st
			}
			plain := runOnce(nil)
			rec := newRecorder()
			traced := runOnce(rec)
			for r := 0; r < ranks; r++ {
				if len(plain.sums[r]) == 0 || len(plain.sums[r]) != len(traced.sums[r]) {
					t.Fatalf("rank %d: %d untraced samples, %d traced", r, len(plain.sums[r]), len(traced.sums[r]))
				}
				for k := range plain.sums[r] {
					if plain.sums[r][k] != traced.sums[r][k] || plain.sums[r][k] != plain.sums[0][k] {
						t.Errorf("rank %d sample %d: untraced %x, traced %x, rank 0 %x", r, k, plain.sums[r][k], traced.sums[r][k], plain.sums[0][k])
					}
				}
			}
			if plain.sentBytes != traced.sentBytes || plain.sentBytes <= 0 {
				t.Errorf("wire bytes: untraced %v, traced %v", plain.sentBytes, traced.sentBytes)
			}
			var ops int64
			for _, l := range []layer{lAllreduce, lAllgather, lBroadcast, lBarrier} {
				ops += rec.ranks[0].calls[l]
			}
			if ops != plain.rounds || plain.rounds != traced.rounds {
				t.Errorf("collective ops: traced wrapper saw %d, engine rounds untraced %d, traced %d", ops, plain.rounds, traced.rounds)
			}
		})
	}
}

// TestTraceCompressorKeepsCapabilities wraps every registered compressor and
// requires the wrapper to expose exactly the optional interfaces the wrapped
// compressor has.
func TestTraceCompressorKeepsCapabilities(t *testing.T) {
	rr := newRecorder().ranks[0]
	var sawInto, sawAgg, sawCustom, sawNone bool
	for _, meta := range grace.All() {
		c, err := grace.New(meta.Name)
		if err != nil {
			t.Fatalf("%s: %v", meta.Name, err)
		}
		want, got := grace.Capabilities(c), grace.Capabilities(traceCompressor(c, rr))
		if got.Strategy != want.Strategy ||
			(got.Into != nil) != (want.Into != nil) ||
			(got.Aggregator != nil) != (want.Aggregator != nil) ||
			(got.Custom != nil) != (want.Custom != nil) {
			t.Errorf("%s: wrapped capabilities %+v, bare %+v", meta.Name, got, want)
		}
		sawInto = sawInto || want.Into != nil
		sawAgg = sawAgg || want.Aggregator != nil
		sawCustom = sawCustom || want.Custom != nil
		sawNone = sawNone || (want.Into == nil && want.Aggregator == nil && want.Custom == nil)
	}
	if !sawInto || !sawAgg || !sawCustom || !sawNone {
		t.Errorf("registry no longer covers every capability: into=%v agg=%v custom=%v none=%v", sawInto, sawAgg, sawCustom, sawNone)
	}
}

// TestTracedCollCountsLikeMeter drives the same ops through tracedColl and
// comm.Meter and compares the byte accounting; it also checks the wrapper
// stays transparent to comm's capability probes.
func TestTracedCollCountsLikeMeter(t *testing.T) {
	hub := comm.NewHub(ranks)
	rec := newRecorder()
	var meters [ranks]*comm.Meter
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		meters[r] = comm.NewMeter(hub.Worker(r))
		var coll comm.Collective = &tracedColl{inner: meters[r], r: rec.ranks[r]}
		if _, ok := coll.(comm.ContextCollective); !ok {
			t.Fatal("tracedColl must implement comm.ContextCollective")
		}
		if _, ok := comm.AsReformer(coll); !ok {
			t.Fatal("comm.AsReformer must see through tracedColl")
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			x := make([]float32, 100)
			payload := make([]byte, 10+7*r)
			if err := coll.AllreduceF32(x); err != nil {
				t.Error(err)
			}
			if _, err := coll.AllgatherBytes(payload); err != nil {
				t.Error(err)
			}
			if _, err := coll.BroadcastBytes(payload, 1); err != nil {
				t.Error(err)
			}
			if err := coll.Barrier(); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	for r, rr := range rec.ranks {
		if rr.sent != meters[r].BytesSent() || rr.recv != meters[r].BytesRecv() {
			t.Errorf("rank %d: traced sent/recv %d/%d, Meter %d/%d", r, rr.sent, rr.recv, meters[r].BytesSent(), meters[r].BytesRecv())
		}
		if len(rr.entries) != 4 || rr.failedOps != 0 {
			t.Errorf("rank %d: %d ops logged, %d failed", r, len(rr.entries), rr.failedOps)
		}
	}
}

func TestUnion(t *testing.T) {
	got := union([]interval{{10, 20}, {0, 5}, {15, 30}, {16, 18}, {40, 41}})
	if got != 5+20+1 {
		t.Errorf("union = %d, want 26", got)
	}
}

// TestQuartilesMatchPython pins the values Python's
// statistics.quantiles(xs, n=4) gives, which is what the driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, stepsPerS, p50 []float64) string {
		var buf bytes.Buffer
		for i := range stepsPerS {
			info, _ := json.Marshal(runInfo{Workload: "exchange_hub_dense"})
			res, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]value{
				"steps_per_s": {stepsPerS[i], "1/s"}, "step_p50_ms": {p50[i], "ms"}}})
			buf.Write(append(append(info, '\n'), append(res, '\n')...))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a", []float64{100, 101, 102}, []float64{5, 5.01, 5.02})
	same := write("same", []float64{99, 100, 101}, []float64{5.02, 5, 5.01})
	slower := write("slower", []float64{60, 61, 62}, []float64{5, 7, 9})
	var out bytes.Buffer
	if worse, err := compareFiles(&out, a, same); err != nil || worse {
		t.Errorf("equal sets: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err := compareFiles(&out, a, slower)
	if err != nil || !worse {
		t.Errorf("slower set: worse=%v err=%v", worse, err)
	}
	if s := out.String(); !regexp.MustCompile(`steps_per_s .* worse`).MatchString(s) ||
		!regexp.MustCompile(`step_p50_ms .* unresolved`).MatchString(s) {
		t.Errorf("want steps_per_s worse and step_p50_ms unresolved:\n%s", s)
	}
}

// TestGoldenCatchesADifferentLossCurve feeds the training check a loss curve
// that is the recorded one for seed 1, then one that is not.
func TestGoldenCatchesADifferentLossCurve(t *testing.T) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	want, ok := g["train_tcp_topk"]["1"]
	if !ok {
		t.Fatal("testdata/golden.json has no record for train_tcp_topk seed 1")
	}
	curve := func(first, second float64) *runStats {
		st := &runStats{}
		for i := 0; i < 20; i++ {
			st.losses = append(st.losses, first)
		}
		for i := 0; i < 20; i++ {
			st.losses = append(st.losses, second)
		}
		return st
	}
	good := &checker{w: workloadByName("train_tcp_topk"), seed: 1}
	good.training(curve(want[0], want[1]), options{})
	if len(good.fails) != 0 {
		t.Errorf("recorded curve rejected: %v", good.fails)
	}
	bad := &checker{w: workloadByName("train_tcp_topk"), seed: 1}
	bad.training(curve(want[0], want[1]*1.01), options{})
	if len(bad.fails) != 1 {
		t.Errorf("curve 1%% off the record: %d failures, want 1: %v", len(bad.fails), bad.fails)
	}
	rising := &checker{w: workloadByName("train_tcp_topk"), seed: 99}
	rising.training(curve(1, 2), options{})
	if len(rising.fails) != 1 {
		t.Errorf("rising loss: %d failures, want 1: %v", len(rising.fails), rising.fails)
	}
}
