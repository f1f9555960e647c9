// Command gracetrain runs one distributed training configuration end to end
// and reports per-epoch quality, virtual time, and volume — the building
// block the figure-level experiments are made of.
//
// Usage:
//
//	gracetrain -bench ncf -method topk -ratio 0.01 -ef -workers 8 -net tcp-10g
//	gracetrain -bench ncf -method topk,qsgd,powersgd -telemetry-addr 127.0.0.1:9090
//	gracetrain -benchlist
//	gracetrain -methods
//
// -method accepts a comma-separated list; each method trains in turn inside
// the one process, so a single live telemetry endpoint (-telemetry-addr)
// observes all of them. -trace writes a Chrome trace_event file of every
// phase span; -artifacts writes a machine-readable run summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	_ "repro/internal/compress/all"
	"repro/internal/grace"
	"repro/internal/harness"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/telemetry/xrank"
)

func main() {
	var (
		bench       = flag.String("bench", "cnnsmall", "benchmark name (see -benchlist)")
		method      = flag.String("method", "none", "compression method, or comma-separated list (see -methods)")
		ratio       = flag.Float64("ratio", 0, "sparsification ratio / adaptive alpha")
		levels      = flag.Int("levels", 0, "quantization levels / sketch buckets")
		rank        = flag.Int("rank", 0, "low-rank factorization rank")
		threshold   = flag.Float64("threshold", 0, "threshold (thresholdv) / sparsity multiplier (threelc)")
		ef          = flag.Bool("ef", false, "enable framework error feedback")
		codecpar    = flag.Int("codecpar", 0, "codec lanes per worker Engine (0 = GOMAXPROCS)")
		fusion      = flag.Int("fusion-bytes", 0, "tensor-fusion bucket fill target in bytes; one collective round carries many tensors (0 = per-tensor rounds)")
		workers     = flag.Int("workers", 8, "number of workers")
		net         = flag.String("net", "tcp-10g", "network preset")
		scale       = flag.Float64("scale", 1.0, "epoch scale factor")
		seed        = flag.Uint64("seed", 42, "run seed")
		benchlist   = flag.Bool("benchlist", false, "list benchmarks")
		methods     = flag.Bool("methods", false, "list methods")
		chaos       = flag.Bool("chaos", false, "run the fault-injection chaos sweep (add an explicit -bench/-method to also train afterwards in the same process)")
		rejoin      = flag.Bool("rejoin", false, "run the live-rejoin battery standalone: one rank dies mid-run, the survivors reform and heal in place, with a restart-vs-rejoin downtime comparison (included in -chaos)")
		elastic     = flag.Bool("elastic", false, "run the elastic-membership battery: one rank dies for good, the survivors vote to continue at N-1 (verified bitwise against an N-1 reference), then a fresh joiner grows a group back to full size; includes a degrade-vs-restart downtime comparison")
		retryBudget = flag.Int("retry-budget", 0, "override the total retry budget of the chaos sweep's transient-fault retry scenarios (0 = policy default)")
		autotune    = flag.Bool("autotune", false, "run the autotune battery on -bench: one tuned run vs every static candidate, compared on modeled step time (writes BENCH_autotune_<bench>.json; ignores -method and -fusion-bytes)")
		straggler   = flag.Bool("straggler", false, "run the straggler-attribution battery: 4 ranks with one injected slow rank; the merged cross-rank trace must attribute ≥90% of steps to it (writes XRANK_* artifacts into -artifacts)")
		xr          = flag.Bool("xrank", false, "enable the cross-rank observability plane for training runs: step-correlated distributed trace, flight recorder, skew analytics (artifacts land in -artifacts)")
		xrEvery     = flag.Int("xrank-every", 25, "cross-rank trace aggregation cadence in optimizer steps (with -xrank; adds one small allgather per cadence tick)")
		telAddr     = flag.String("telemetry-addr", "", "serve live /metrics, /debug/vars and /debug/pprof on this address; also enables span recording")
		tracePath   = flag.String("trace", "", "write a Chrome trace_event file (load in Perfetto / chrome://tracing); also enables span recording")
		telLinger   = flag.Duration("telemetry-linger", 0, "keep the telemetry server up this long after the run, for a final scrape")
		artifacts   = flag.String("artifacts", "", "write an auto-named run summary (RUN_<kind>.json) into this directory")
	)
	flag.Parse()

	finishTel := startTelemetry(*telAddr, *tracePath, *telLinger)

	// -xrank arms the cross-rank plane process-wide up front, so the chaos
	// battery's injected faults leave flight recordings too — not only the
	// training run (whose trainer re-applies the same configuration).
	if *xr {
		xrank.Default.SetEnabled(true)
		if *artifacts != "" {
			xrank.Default.ConfigureFlight(*artifacts, 0, 0)
		}
	}

	// -chaos / -rejoin / -elastic alone replace training; combined with an
	// explicit -bench or -method they run first, so one process (and one
	// telemetry endpoint) covers fault/recovery counters and multi-strategy
	// training.
	trainRequested := !*chaos && !*rejoin && !*elastic
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "bench" || f.Name == "method" || f.Name == "autotune" {
			trainRequested = true
		}
	})
	summary := &harness.RunSummary{Kind: "train", Workers: *workers, Seed: *seed, Pass: true}
	chaosFailed := 0
	if *straggler {
		summary.Kind = "straggler"
		failed := runStraggler(*seed, *artifacts, summary)
		writeSummary(*artifacts, summary)
		finishTel()
		if failed {
			fatal(fmt.Errorf("straggler-attribution battery failed"))
		}
		return
	}
	if *chaos || *rejoin || *elastic {
		var kinds []string
		if *chaos {
			kinds = append(kinds, "chaos")
		} else if *rejoin {
			kinds = append(kinds, "rejoin")
		}
		if *elastic {
			kinds = append(kinds, "elastic")
		}
		summary.Kind = strings.Join(kinds, "+")
		if trainRequested {
			summary.Kind += "+train"
		}
		if *chaos {
			// The full sweep already includes the rejoin battery.
			chaosFailed = runChaos(*workers, *seed, *retryBudget, summary)
		} else if *rejoin {
			chaosFailed = runRejoinScenarios(summary)
		}
		if *elastic {
			chaosFailed += runElasticScenarios(summary)
		}
		if !trainRequested {
			writeSummary(*artifacts, summary)
			finishTel()
			if chaosFailed > 0 {
				fatal(fmt.Errorf("%d chaos/recovery scenario(s) failed", chaosFailed))
			}
			return
		}
	}

	if *benchlist {
		for _, b := range harness.Benchmarks() {
			fmt.Printf("%-10s stands in for %-24s (%s, metric: %s)\n", b.Name, b.PaperModel, b.Task, b.Metric)
		}
		return
	}
	if *methods {
		for _, m := range grace.All() {
			fmt.Printf("%-12s %-15s EF-default=%v builtin-EF=%v  %s\n", m.Name, m.Class, m.DefaultEF, m.BuiltinEF, m.Reference)
		}
		return
	}

	b, err := harness.BenchmarkByName(*bench)
	if err != nil {
		fatal(err)
	}
	link, err := simnet.PresetByName(*net)
	if err != nil {
		fatal(err)
	}
	sc := harness.SweepConfig{
		Workers: *workers, Net: link, Scale: *scale, Seed: *seed,
		CodecParallelism: *codecpar,
		FusionBytes:      *fusion,
	}
	if *xr {
		sc.XRank = grace.XRankConfig{
			Enable:         true,
			AggregateEvery: *xrEvery,
			ArtifactsDir:   *artifacts,
		}
	}

	if *autotune {
		if *chaos {
			summary.Kind = "chaos+autotune"
		} else {
			summary.Kind = "autotune"
		}
		// The Engine rejects fusion in tuner mode; the battery compares
		// per-tensor collective schedules.
		sc.FusionBytes = 0
		runAutotune(b, sc, *artifacts, summary)
		writeSummary(*artifacts, summary)
		finishTel()
		if chaosFailed > 0 {
			fatal(fmt.Errorf("%d chaos/recovery scenario(s) failed", chaosFailed))
		}
		return
	}

	for _, name := range strings.Split(*method, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		meta, err := grace.Lookup(name)
		if err != nil {
			fatal(err)
		}
		useEF := *ef
		if meta.BuiltinEF && useEF {
			fmt.Fprintf(os.Stderr, "gracetrain: %s has built-in memory; disabling framework EF\n", name)
			useEF = false
		}
		spec := harness.MethodSpec{
			Label: name,
			Name:  name,
			Opts: grace.BuildOptions(
				grace.WithRatio(*ratio), grace.WithLevels(*levels),
				grace.WithRank(*rank), grace.WithThreshold(*threshold),
			),
			EF: useEF,
		}
		fmt.Printf("training %s (%s) with %s on %d workers over %s\n",
			b.Name, b.PaperModel, name, *workers, link.Name)
		rep, err := harness.RunOne(b, spec, sc)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%-6s %-12s %-12s\n", "epoch", b.Metric, "time (s)")
		for i := range rep.EpochQuality {
			fmt.Printf("%-6d %-12.4f %-12.2f\n", i+1, rep.EpochQuality[i], rep.EpochVirtualTime[i].Seconds())
		}
		fmt.Printf("\nbest %s:        %.4f\n", b.Metric, rep.BestQuality)
		fmt.Printf("throughput:       %.1f samples/s (virtual)\n", rep.Throughput)
		fmt.Printf("volume/iteration: %.0f bytes/worker sent, %.0f received\n", rep.BytesPerIter, rep.RecvPerIter)
		fmt.Printf("time split:       compute %v | codec %v | network %v\n\n",
			rep.ComputeTime, rep.CodecTime, rep.CommTime)
		summary.Train = append(summary.Train, harness.TrainJSON(b.Name, name, rep))
		// The summary carries the last method's per-tensor quality table;
		// with -xrank the headline rows also print here.
		summary.Quality = rep.Quality
		if *xr && len(rep.Quality) > 0 {
			fmt.Printf("%-24s %-12s %-10s %-14s %-12s\n", "tensor", "method", "params", "bits/param", "residual-L2")
			for _, q := range rep.Quality {
				fmt.Printf("%-24s %-12s %-10d %-14.3f %-12.4g\n", q.Name, q.Method, q.Params, q.BitsPerParam, q.ResidualL2)
			}
			fmt.Println()
		}
	}

	writeSummary(*artifacts, summary)
	finishTel()
	if chaosFailed > 0 {
		fatal(fmt.Errorf("%d chaos/recovery scenario(s) failed", chaosFailed))
	}
}

// startTelemetry enables span recording and stands up the exporters the
// flags ask for; the returned func finishes them (linger for a last scrape,
// flush and close the trace). With no flags set, both are no-ops.
func startTelemetry(addr, tracePath string, linger time.Duration) func() {
	if addr == "" && tracePath == "" {
		return func() {}
	}
	telemetry.Default.Enable(true)
	var tr *telemetry.Tracer
	if tracePath != "" {
		var err error
		if tr, err = telemetry.CreateTrace(tracePath); err != nil {
			fatal(err)
		}
		telemetry.Default.SetTracer(tr)
	}
	var srv *telemetry.MetricsServer
	if addr != "" {
		var err error
		if srv, err = telemetry.Default.Serve(addr); err != nil {
			fatal(err)
		}
		fmt.Printf("telemetry: serving /metrics, /debug/vars, /debug/pprof on http://%s\n", srv.Addr())
	}
	return func() {
		if srv != nil && linger > 0 {
			fmt.Printf("telemetry: lingering %v for a final scrape of http://%s/metrics\n", linger, srv.Addr())
			time.Sleep(linger)
		}
		if tr != nil {
			telemetry.Default.SetTracer(nil)
			if err := tr.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "gracetrain: closing trace:", err)
			} else {
				fmt.Printf("telemetry: trace written to %s\n", tracePath)
			}
		}
		if srv != nil {
			srv.Close()
		}
	}
}

// writeSummary snapshots the telemetry registry into the summary and writes
// it auto-named into dir (-artifacts). With no dir set, it does nothing.
func writeSummary(dir string, s *harness.RunSummary) {
	if dir == "" {
		return
	}
	snap := telemetry.Default.Snapshot()
	s.Telemetry = &snap
	out, err := harness.WriteRunSummaryDir(dir, s)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("run summary written to %s\n", out)
}

// runAutotune runs the autotune battery on one benchmark — a tuned training
// run against every static candidate, all frozen policies rescored on a
// common replay stream — prints the ranking, and writes the
// BENCH_autotune_<bench>.json artifact (into -artifacts, or ./results).
func runAutotune(b harness.Benchmark, sc harness.SweepConfig, artifactsDir string, summary *harness.RunSummary) {
	fmt.Printf("autotune battery: %s (%s) on %d workers over %s\n\n",
		b.Name, b.PaperModel, sc.Workers, sc.Net.Name)
	res, err := harness.RunAutotuneBench(b, sc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-12s %-14s %-12s %-9s\n", "policy", "step (modeled)", b.Metric, "switches")
	for _, r := range res.Rows {
		fmt.Printf("%-12s %-14s %-12.4f %-9d\n",
			r.Label, r.StepTime.Round(time.Microsecond), r.Report.FinalQuality, r.Switches)
		summary.Train = append(summary.Train, harness.TrainJSON(b.Name, r.Label, r.Report))
	}
	fmt.Printf("\ntuned vs best static (%s): %s vs %s\n",
		res.BestStatic.Label, res.Tuned.StepTime.Round(time.Microsecond), res.BestStatic.StepTime.Round(time.Microsecond))
	fmt.Printf("final tuned policy: %s\n", strings.Join(res.Tuned.FinalPolicy, ", "))
	if res.Tuned.StepTime > res.BestStatic.StepTime {
		summary.Pass = false
		fmt.Println("WARNING: tuned policy is slower than the best static method")
	}
	dir := artifactsDir
	if dir == "" {
		dir = "results"
	}
	out, err := telemetry.WriteBenchArtifact(dir, harness.AutotuneArtifact(res))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("bench artifact written to %s\n", out)
}

// runChaos executes the default fault-injection battery: engines over a
// Faulty-wrapped hub, one scenario per fault kind, with a watchdog converting
// any deadlock into a failed row. Scenario rows land in summary; the return
// value is the number of failed scenarios.
// runStraggler executes the straggler-attribution battery and reports the
// verdict; artifacts (merged trace + skew summary) land in artifactsDir for
// gracestat. Returns true on failure.
func runStraggler(seed uint64, artifactsDir string, summary *harness.RunSummary) bool {
	cfg := harness.DefaultStraggler(4, seed)
	cfg.ArtifactsDir = artifactsDir
	fmt.Printf("straggler battery: %d ranks, rank %d delayed %v before every allreduce, %d steps\n",
		cfg.Workers, cfg.DelayRank, cfg.Delay, cfg.Steps)
	res := harness.RunStraggler(cfg)
	for rank, err := range res.Errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "gracetrain: straggler rank %d: %v\n", rank, err)
		}
	}
	verdict := "ok"
	if !res.Pass {
		verdict = "FAIL"
		summary.Pass = false
	}
	fmt.Printf("%-6s attributed %d/%d steps to rank %d, max skew %v, counts %v\n",
		verdict, res.Attributed, res.SkewSteps, res.DelayedRank,
		time.Duration(res.MaxSkewNs).Round(time.Microsecond), res.Counts)
	if res.Detail != "" {
		fmt.Printf("    %s\n", res.Detail)
	}
	if artifactsDir != "" && res.Pass {
		fmt.Printf("artifacts: %s/XRANK_trace.json (chrome://tracing), %s/XRANK_skew.json (gracestat)\n",
			artifactsDir, artifactsDir)
	}
	summary.Straggler = append(summary.Straggler, harness.StragglerJSON(res))
	return !res.Pass
}

func runChaos(workers int, seed uint64, retryBudget int, summary *harness.RunSummary) int {
	cfg := harness.DefaultChaos(workers, seed)
	tuned := harness.AutotuneChaos(workers, seed)
	if retryBudget > 0 {
		for _, c := range []*harness.ChaosConfig{&cfg, &tuned} {
			for i := range c.Scenarios {
				if c.Scenarios[i].Retry != nil {
					c.Scenarios[i].Retry.Budget = retryBudget
				}
			}
		}
	}
	fmt.Printf("chaos sweep: %d workers, %d tensors x %d steps, method %s\n\n",
		cfg.Workers, cfg.Tensors, cfg.Steps, cfg.Method)
	fmt.Printf("%-18s %-6s %-9s %-8s %-9s %-10s %-8s\n",
		"scenario", "pass", "injected", "retries", "faults", "fallbacks", "elapsed")
	failed := 0
	report := func(r harness.ChaosResult, prefix string) {
		verdict := "ok"
		if !r.Pass {
			verdict = "FAIL"
			failed++
			summary.Pass = false
		}
		r.Scenario = prefix + r.Scenario
		fmt.Printf("%-18s %-6s %-9d %-8d %-9d %-10d %-8s\n",
			r.Scenario, verdict, r.Injected, r.Retries, r.Faults, r.Fallbacks, r.Elapsed.Round(time.Millisecond))
		if r.Detail != "" {
			fmt.Printf("    %s\n", r.Detail)
		}
		summary.Chaos = append(summary.Chaos, harness.ChaosJSON(r))
	}
	for _, r := range harness.RunChaos(cfg) {
		report(r, "")
	}
	// The same battery with the engines in autotuning mode, so faults also
	// land on warmup probes, scored switches, and flush handoffs.
	for _, r := range harness.RunChaos(tuned) {
		report(r, "tuned/")
	}
	return failed + runRecoveryScenarios(summary) + runRejoinScenarios(summary)
}

// runRecoveryScenarios executes the supervised kill/restart battery: one
// worker dies mid-run, the group rolls back to the newest common checkpoint,
// and the recovered finals must match an uninterrupted run bit for bit — on
// both the in-process hub and a real heartbeat-enabled TCP ring, for a
// stateless codec with framework error feedback and a codec with internal
// state.
func runRecoveryScenarios(summary *harness.RunSummary) int {
	fmt.Printf("\nrecovery scenarios: kill one rank mid-run, restart from the newest common checkpoint\n")
	fmt.Printf("%-14s %-6s %-12s %-8s\n", "scenario", "pass", "resume-step", "elapsed")
	failed := 0
	for _, sc := range []struct {
		transport, method string
		mem               bool
		// hang freezes the victim instead of severing its sockets, so the
		// survivors convict it through the heartbeat miss window.
		hang bool
		// autotune runs the workers under the runtime policy engine; the
		// restart must resume the policy trajectory bitwise too.
		autotune bool
	}{
		{harness.TransportHub, "topk", true, false, false},
		{harness.TransportHub, "dgc", false, false, false},
		{harness.TransportTCP, "topk", true, false, false},
		{harness.TransportTCP, "dgc", false, true, false},
		{harness.TransportHub, "autotune", true, false, true},
		{harness.TransportTCP, "autotune", true, false, true},
	} {
		name := sc.transport + "/" + sc.method
		if sc.hang {
			name += "/hang"
		}
		dir, err := os.MkdirTemp("", "grace-recovery-*")
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		rcfg := harness.DefaultRecovery(sc.transport, sc.method, sc.mem, dir)
		if sc.autotune {
			rcfg = harness.AutotuneRecovery(sc.transport, dir)
		}
		if sc.hang {
			rcfg.KillMode = "hang"
		}
		res, err := harness.RunRecovery(rcfg)
		elapsed := time.Since(start).Round(time.Millisecond)
		os.RemoveAll(dir)
		row := harness.RecoveryJSON(name, res, elapsed, err)
		summary.Recovery = append(summary.Recovery, row)
		switch {
		case err != nil:
			failed++
			summary.Pass = false
			fmt.Printf("%-14s %-6s %-12s %-8s\n    %v\n", name, "FAIL", "-", elapsed, err)
		case !res.Match:
			failed++
			summary.Pass = false
			fmt.Printf("%-14s %-6s %-12d %-8s\n    %s\n", name, "FAIL", res.ResumeStep, elapsed, res.Detail)
		default:
			fmt.Printf("%-14s %-6s %-12d %-8s\n", name, "ok", res.ResumeStep, elapsed)
		}
	}
	return failed
}

// runRejoinScenarios executes the live-rejoin battery and prints the
// restart-vs-rejoin downtime comparison: the same kill handled by (a) the
// supervised full-restart path, where every rank's worker is torn down and
// relaunched from the newest common checkpoint, and (b) the self-healing
// path, where the survivors reform at the next generation and roll back in
// place while only the dead rank is respawned. Both must converge bitwise to
// the uninterrupted reference; the rejoin path must additionally keep every
// healthy rank's worker alive (launch count 1).
func runRejoinScenarios(summary *harness.RunSummary) int {
	fmt.Printf("\nrejoin scenarios: kill one rank mid-run, survivors heal in place (vs full restart)\n")
	fmt.Printf("%-14s %-6s %-12s %-4s %-10s %-16s %-16s\n",
		"scenario", "pass", "resume-step", "gen", "launches", "rejoin-downtime", "restart-downtime")
	failed := 0
	for _, sc := range []struct {
		transport, method string
		mem               bool
		autotune          bool
	}{
		{harness.TransportHub, "topk", true, false},
		{harness.TransportTCP, "topk", true, false},
		{harness.TransportTCP, "dgc", false, false},
		{harness.TransportTCP, "autotune", true, true},
	} {
		name := sc.transport + "/" + sc.method
		mkcfg := func() (harness.RecoveryConfig, string, error) {
			dir, err := os.MkdirTemp("", "grace-rejoin-*")
			if err != nil {
				return harness.RecoveryConfig{}, "", err
			}
			cfg := harness.DefaultRecovery(sc.transport, sc.method, sc.mem, dir)
			if sc.autotune {
				cfg = harness.AutotuneRecovery(sc.transport, dir)
			}
			return cfg, dir, nil
		}

		// The restart baseline: same transport, same kill, full teardown.
		cfg, dir, err := mkcfg()
		if err != nil {
			fatal(err)
		}
		var restartDowntime time.Duration
		if rres, rerr := harness.RunRecovery(cfg); rerr == nil && rres.Match {
			restartDowntime = rres.Downtime
		}
		os.RemoveAll(dir)

		if cfg, dir, err = mkcfg(); err != nil {
			fatal(err)
		}
		res, err := harness.RunRejoin(cfg)
		os.RemoveAll(dir)
		row := harness.RejoinJSON(name, res, restartDowntime, err)
		summary.Rejoin = append(summary.Rejoin, row)
		healthyStayed := err == nil
		if err == nil {
			for rank, launches := range res.Launches {
				want := 1
				if rank == cfg.KillRank {
					want = 2
				}
				if launches != want {
					healthyStayed = false
				}
			}
		}
		switch {
		case err != nil:
			failed++
			summary.Pass = false
			fmt.Printf("%-14s %-6s\n    %v\n", name, "FAIL", err)
		case !res.Match || !healthyStayed:
			failed++
			summary.Pass = false
			fmt.Printf("%-14s %-6s %-12d %-4d %-10v %-16s %-16s\n    %s\n",
				name, "FAIL", res.ResumeStep, res.Generation, res.Launches,
				res.Downtime.Round(time.Millisecond), restartDowntime.Round(time.Millisecond), res.Detail)
		default:
			fmt.Printf("%-14s %-6s %-12d %-4d %-10v %-16s %-16s\n",
				name, "ok", res.ResumeStep, res.Generation, res.Launches,
				res.Downtime.Round(time.Millisecond), restartDowntime.Round(time.Millisecond))
		}
	}
	return failed
}

// runElasticScenarios drives the elastic-membership battery: a rank dies for
// good, the survivors vote to continue at N−1 (finishing bitwise-identical to
// an N−1 reference started from the post-reform state), and — in the grow
// scenario — a fresh joiner presented at a step boundary is absorbed back to
// full size. The supervised full-restart path on the same kill provides the
// degrade-vs-restart downtime comparison.
func runElasticScenarios(summary *harness.RunSummary) int {
	fmt.Printf("\nelastic scenarios: kill one rank for good; survivors commit N-1 and continue, then a fresh joiner grows the group back\n")
	fmt.Printf("%-12s %-6s %-7s %-12s %-6s %-9s %-17s %-16s\n",
		"scenario", "pass", "size", "shrink-step", "lost", "ef-drops", "shrink-downtime", "restart-downtime")
	failed := 0
	for _, sc := range []struct {
		transport, method string
		mem               bool
	}{
		{harness.TransportHub, "topk", true},
		{harness.TransportHub, "dgc", false},
		{harness.TransportTCP, "topk", true},
	} {
		name := sc.transport + "/" + sc.method
		mkcfg := func() (harness.RecoveryConfig, string, error) {
			dir, err := os.MkdirTemp("", "grace-elastic-*")
			if err != nil {
				return harness.RecoveryConfig{}, "", err
			}
			return harness.DefaultElastic(sc.transport, sc.method, sc.mem, dir), dir, nil
		}

		// The restart baseline: same transport, same kill, full teardown of
		// every rank instead of a degraded continue.
		cfg, dir, err := mkcfg()
		if err != nil {
			fatal(err)
		}
		var restartDowntime time.Duration
		if rres, rerr := harness.RunRecovery(cfg); rerr == nil && rres.Match {
			restartDowntime = rres.Downtime
		}
		os.RemoveAll(dir)

		if cfg, dir, err = mkcfg(); err != nil {
			fatal(err)
		}
		res, err := harness.RunElastic(cfg)
		os.RemoveAll(dir)
		row := harness.ElasticJSON(name, res, restartDowntime, err)
		summary.Elastic = append(summary.Elastic, row)
		switch {
		case err != nil:
			failed++
			summary.Pass = false
			fmt.Printf("%-12s %-6s\n    %v\n", name, "FAIL", err)
		case !res.Match:
			failed++
			summary.Pass = false
			fmt.Printf("%-12s %-6s %-7s %-12d %-6s %-9d %-17s %-16s\n    %s\n",
				name, "FAIL", fmt.Sprintf("%d->%d", cfg.Train.Workers, res.ShrinkSize),
				res.ShrinkStep, fmt.Sprint(res.Lost), res.EFDrops,
				res.Downtime.Round(time.Millisecond), restartDowntime.Round(time.Millisecond), res.Detail)
		default:
			fmt.Printf("%-12s %-6s %-7s %-12d %-6s %-9d %-17s %-16s\n",
				name, "ok", fmt.Sprintf("%d->%d", cfg.Train.Workers, res.ShrinkSize),
				res.ShrinkStep, fmt.Sprint(res.Lost), res.EFDrops,
				res.Downtime.Round(time.Millisecond), restartDowntime.Round(time.Millisecond))
		}
	}

	// The grow scenario: shrink as above, then a fresh worker presents at the
	// members' join point and the group absorbs it back to full size.
	name := harness.TransportHub + "/grow"
	dir, err := os.MkdirTemp("", "grace-elastic-*")
	if err != nil {
		fatal(err)
	}
	growCfg := harness.DefaultElastic(harness.TransportHub, "topk", true, dir)
	gres, gerr := harness.RunElasticGrow(growCfg)
	os.RemoveAll(dir)
	row := harness.ElasticGrowJSON(name, gres, growCfg.Train.Workers, gerr)
	summary.Elastic = append(summary.Elastic, row)
	fmt.Printf("\n%-12s %-6s %-7s %-12s %-12s %-16s\n",
		"scenario", "pass", "size", "shrink-step", "grow-step", "grow-downtime")
	switch {
	case gerr != nil:
		failed++
		summary.Pass = false
		fmt.Printf("%-12s %-6s\n    %v\n", name, "FAIL", gerr)
	case !row.Pass:
		failed++
		summary.Pass = false
		fmt.Printf("%-12s %-6s %-7s %-12d %-12d %-16s\n",
			name, "FAIL", fmt.Sprintf("%d->%d", growCfg.Train.Workers-1, gres.GrowSize),
			gres.ShrinkStep, gres.GrowStep, gres.GrowDowntime.Round(time.Millisecond))
	default:
		fmt.Printf("%-12s %-6s %-7s %-12d %-12d %-16s\n",
			name, "ok", fmt.Sprintf("%d->%d", growCfg.Train.Workers-1, gres.GrowSize),
			gres.ShrinkStep, gres.GrowStep, gres.GrowDowntime.Round(time.Millisecond))
	}
	return failed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gracetrain:", err)
	os.Exit(1)
}
