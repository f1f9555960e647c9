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
		autotune    = flag.Bool("autotune", false, "run the autotune battery on -bench: one tuned run vs every static candidate, compared on modeled step time (the rows land in RUN_autotune.json under -artifacts; ignores -method and -fusion-bytes)")
		straggler   = flag.Bool("straggler", false, "run the straggler-attribution battery: 4 ranks with one injected slow rank; the merged cross-rank trace must attribute ≥90% of steps to it (writes XRANK_* artifacts into -artifacts)")
		xr          = flag.Bool("xrank", false, "enable the cross-rank observability plane for training runs: step-correlated distributed trace, flight recorder, skew analytics (artifacts land in -artifacts)")
		xrEvery     = flag.Int("xrank-every", 25, "cross-rank trace aggregation cadence in optimizer steps (with -xrank; adds one small allgather per cadence tick)")
		telAddr     = flag.String("telemetry-addr", "", "serve live /metrics, /debug/vars and /debug/pprof on this address; also enables span recording")
		tracePath   = flag.String("trace", "", "write a Chrome trace_event file (load in Perfetto / chrome://tracing); also enables span recording")
		telLinger   = flag.Duration("telemetry-linger", 0, "keep the telemetry server up this long after the run, for a final scrape")
		artifacts   = flag.String("artifacts", "", "write an auto-named run summary (RUN_<kind>.json) into this directory")
	)
	flag.Parse()

	finishTel, err := telemetry.Default.StartExporters("gracetrain", *telAddr, *tracePath, *telLinger)
	if err != nil {
		fatal(err)
	}

	// -xrank arms the cross-rank plane process-wide up front, so the chaos
	// battery's injected faults leave flight recordings too — not only the
	// training run (whose trainer re-applies the same configuration).
	if *xr {
		telemetry.Default.Enable(true)
		telemetry.Default.ConfigureFlight(*artifacts)
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
	// finish writes the summary, stops telemetry, and fails the process if any
	// fault scenario did.
	finish := func() {
		writeSummary(*artifacts, summary)
		finishTel()
		if chaosFailed > 0 {
			fatal(fmt.Errorf("%d chaos/recovery scenario(s) failed", chaosFailed))
		}
	}
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
	_, rejoinTable, shrinkTable, growTable := scenarioTables(summary)
	var kinds []string
	switch {
	case *chaos:
		// The full sweep already includes the rejoin battery.
		kinds = append(kinds, "chaos")
		chaosFailed = runChaos(*workers, *seed, *retryBudget, summary)
	case *rejoin:
		kinds = append(kinds, "rejoin")
		chaosFailed = runScenarios(summary, rejoinTable)
	}
	if *elastic {
		kinds = append(kinds, "elastic")
		chaosFailed += runScenarios(summary, shrinkTable, growTable)
	}
	if len(kinds) > 0 {
		if !trainRequested {
			summary.Kind = strings.Join(kinds, "+")
			finish()
			return
		}
		summary.Kind = strings.Join(kinds, "+") + "+train"
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
		runAutotune(b, sc, summary)
		finish()
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

	finish()
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
// common replay stream — prints the ranking, and hands the rows to the run
// summary (RUN_autotune.json).
func runAutotune(b harness.Benchmark, sc harness.SweepConfig, summary *harness.RunSummary) {
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
	summary.Autotune = res.Rows
	fmt.Printf("\ntuned vs best static (%s): %s vs %s\n",
		res.BestStatic.Label, res.Tuned.StepTime.Round(time.Microsecond), res.BestStatic.StepTime.Round(time.Microsecond))
	fmt.Printf("final tuned policy: %s\n", strings.Join(res.Tuned.FinalPolicy, ", "))
	if res.Tuned.StepTime > res.BestStatic.StepTime {
		summary.Pass = false
		fmt.Println("WARNING: tuned policy is slower than the best static method")
	}
}

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
	fmt.Printf("%-6s attributed %d/%d steps to rank %d, max skew %.3fms, counts %v\n",
		verdict, res.Attributed, res.SkewSteps, res.DelayedRank, res.MaxSkewMs, res.Counts)
	if res.Detail != "" {
		fmt.Printf("    %s\n", res.Detail)
	}
	if artifactsDir != "" && res.Pass {
		fmt.Printf("artifacts: %s/XRANK_trace.json (chrome://tracing), %s/XRANK_skew.json (gracestat)\n",
			artifactsDir, artifactsDir)
	}
	summary.Straggler = append(summary.Straggler, res)
	return !res.Pass
}

// runChaos executes the default fault-injection battery: engines over a
// Faulty-wrapped hub, one scenario per fault kind, with a watchdog converting
// any deadlock into a failed row — then the restart and rejoin scenario
// tables. Scenario rows land in summary; the return value is the number of
// failed scenarios.
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
			r.Scenario, verdict, r.Injected, r.Retries, r.Faults, r.Fallbacks, millis(r.ElapsedMs))
		if r.Detail != "" {
			fmt.Printf("    %s\n", r.Detail)
		}
		summary.Chaos = append(summary.Chaos, r)
	}
	for _, r := range harness.RunChaos(cfg) {
		report(r, "")
	}
	// The same battery with the engines in autotuning mode, so faults also
	// land on warmup probes, scored switches, and flush handoffs.
	for _, r := range harness.RunChaos(tuned) {
		report(r, "tuned/")
	}
	recovery, rejoin, _, _ := scenarioTables(summary)
	return failed + runScenarios(summary, recovery, rejoin)
}

// scenarioRow describes one row of a fault-scenario table: which scenario, on
// which transport, training with which method ("autotune" runs the workers
// under the runtime policy engine, whose trajectory the recovery must resume
// bitwise too). hang freezes the victim instead of severing its sockets, so
// the survivors convict it through the heartbeat miss window.
type scenarioRow struct {
	scenario          harness.Scenario
	transport, method string
	mem, hang         bool
}

// run executes scenario s on the row's configuration in a scratch checkpoint
// directory. A scenario that could not reach a verdict comes back as a failed
// row carrying the error.
func (r scenarioRow) run(s harness.Scenario) harness.ScenarioResult {
	dir, err := os.MkdirTemp("", "grace-scenario-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := harness.DefaultRecovery(r.transport, r.method, r.mem, dir)
	name := r.transport + "/" + r.method
	if r.method == "autotune" {
		cfg = harness.AutotuneRecovery(r.transport, dir)
	}
	if r.hang {
		cfg.KillMode = "hang"
		name += "/hang"
	}
	if r.scenario == harness.ScenarioGrow {
		name = r.transport + "/grow"
	}
	res, err := harness.RunScenario(s, cfg)
	if err != nil {
		res = &harness.ScenarioResult{Err: err.Error()}
	}
	res.Scenario = name
	return *res
}

// battery is one printed fault-scenario table: its title, its columns
// (header and width; cells renders them), its rows, and the RunSummary array
// the rows land in. baseline additionally runs the supervised full-restart
// path on each row's kill, for the restart-downtime comparison column.
type battery struct {
	title    string
	cols     []column
	rows     []scenarioRow
	baseline bool
	dest     *[]harness.ScenarioResult
}

type column struct {
	head  string
	width int
}

// cells renders a ScenarioResult's fields, keyed by column header.
var cells = map[string]func(r *harness.ScenarioResult) any{
	"scenario":    func(r *harness.ScenarioResult) any { return r.Scenario },
	"pass":        func(r *harness.ScenarioResult) any { return map[bool]string{true: "ok", false: "FAIL"}[r.Pass] },
	"resume-step": func(r *harness.ScenarioResult) any { return r.ResumeStep },
	"elapsed":     func(r *harness.ScenarioResult) any { return millis(r.ElapsedMs) },
	"gen":         func(r *harness.ScenarioResult) any { return r.Generation },
	"launches":    func(r *harness.ScenarioResult) any { return r.Launches },
	"size": func(r *harness.ScenarioResult) any {
		if r.GrowSize > 0 {
			return fmt.Sprintf("%d->%d", r.GrowSize-1, r.GrowSize)
		}
		return fmt.Sprintf("%d->%d", r.ShrinkSize+len(r.Lost), r.ShrinkSize)
	},
	"shrink-step":      func(r *harness.ScenarioResult) any { return r.ShrinkStep },
	"lost":             func(r *harness.ScenarioResult) any { return r.Lost },
	"ef-drops":         func(r *harness.ScenarioResult) any { return r.EFDrops },
	"rejoin-downtime":  func(r *harness.ScenarioResult) any { return millis(r.DowntimeMs) },
	"shrink-downtime":  func(r *harness.ScenarioResult) any { return millis(r.DowntimeMs) },
	"restart-downtime": func(r *harness.ScenarioResult) any { return millis(r.RestartDowntimeMs) },
	"grow-step":        func(r *harness.ScenarioResult) any { return r.GrowStep },
	"grow-downtime":    func(r *harness.ScenarioResult) any { return millis(r.GrowDowntimeMs) },
}

func millis(v float64) time.Duration {
	return time.Duration(v * float64(time.Millisecond)).Round(time.Millisecond)
}

// scenarioTables defines every fault-scenario table, all on the standard kill
// (harness.DefaultRecovery), verified bitwise against the fault-free
// reference on the in-process hub and a real heartbeat-enabled TCP ring, for
// a stateless codec with framework error feedback, a codec with internal
// state, and the autotuner:
//
//   - recovery: the group is torn down and restarted from the newest common
//     checkpoint;
//   - rejoin: the survivors reform and roll back in place while only the dead
//     rank is respawned (every healthy rank's launch count stays 1), next to
//     the full-restart downtime on the same kill;
//   - shrink: the rank is gone for good and the survivors commit N−1, next to
//     the full-restart downtime; then grow, where a fresh joiner presented at
//     a step boundary is absorbed back to full size.
func scenarioTables(summary *harness.RunSummary) (recovery, rejoin, shrink, grow battery) {
	const (
		hub, tcp       = harness.TransportHub, harness.TransportTCP
		rs, rj, sh, gr = harness.ScenarioRestart, harness.ScenarioRejoin, harness.ScenarioShrink, harness.ScenarioGrow
	)
	recovery = battery{
		title: "recovery scenarios: kill one rank mid-run, restart from the newest common checkpoint",
		cols:  []column{{"scenario", 14}, {"pass", 6}, {"resume-step", 12}, {"elapsed", 8}},
		rows: []scenarioRow{{rs, hub, "topk", true, false}, {rs, hub, "dgc", false, false},
			{rs, tcp, "topk", true, false}, {rs, tcp, "dgc", false, true},
			{rs, hub, "autotune", true, false}, {rs, tcp, "autotune", true, false}},
		dest: &summary.Recovery,
	}
	rejoin = battery{
		title: "rejoin scenarios: kill one rank mid-run, survivors heal in place (vs full restart)",
		cols: []column{{"scenario", 14}, {"pass", 6}, {"resume-step", 12}, {"gen", 4}, {"launches", 10},
			{"rejoin-downtime", 16}, {"restart-downtime", 16}},
		rows: []scenarioRow{{rj, hub, "topk", true, false}, {rj, tcp, "topk", true, false},
			{rj, tcp, "dgc", false, false}, {rj, tcp, "autotune", true, false}},
		baseline: true,
		dest:     &summary.Rejoin,
	}
	shrink = battery{
		title: "elastic scenarios: kill one rank for good; survivors commit N-1 and continue, then a fresh joiner grows the group back",
		cols: []column{{"scenario", 12}, {"pass", 6}, {"size", 7}, {"shrink-step", 12}, {"lost", 6}, {"ef-drops", 9},
			{"shrink-downtime", 17}, {"restart-downtime", 16}},
		rows:     []scenarioRow{{sh, hub, "topk", true, false}, {sh, hub, "dgc", false, false}, {sh, tcp, "topk", true, false}},
		baseline: true,
		dest:     &summary.Elastic,
	}
	grow = battery{
		cols: []column{{"scenario", 12}, {"pass", 6}, {"size", 7}, {"shrink-step", 12}, {"grow-step", 12},
			{"grow-downtime", 16}},
		rows: []scenarioRow{{gr, hub, "topk", true, false}},
		dest: &summary.Elastic,
	}
	return recovery, rejoin, shrink, grow
}

// runScenarios runs and prints fault-scenario tables — the one printer every
// restart, rejoin, shrink and grow row goes through — appends the rows to the
// summary, and returns the number of failed rows.
func runScenarios(summary *harness.RunSummary, tables ...battery) int {
	failed := 0
	for _, b := range tables {
		fmt.Println()
		if b.title != "" {
			fmt.Println(b.title)
		}
		printRow(b.cols, func(c column) any { return c.head })
		for _, row := range b.rows {
			res := row.run(row.scenario)
			if b.baseline {
				// Same transport, same kill, full teardown of every rank.
				if base := row.run(harness.ScenarioRestart); base.Pass {
					res.RestartDowntimeMs = base.DowntimeMs
				}
			}
			*b.dest = append(*b.dest, res)
			cols, note := b.cols, res.Detail
			if res.Err != "" {
				// No verdict was reached: only name and verdict have cells.
				cols, note = b.cols[:2], res.Err
			}
			printRow(cols, func(c column) any { return cells[c.head](&res) })
			if note != "" {
				fmt.Printf("    %s\n", note)
			}
			if !res.Pass {
				failed++
				summary.Pass = false
			}
		}
	}
	return failed
}

func printRow(cols []column, cell func(c column) any) {
	padded := make([]string, len(cols))
	for i, c := range cols {
		padded[i] = fmt.Sprintf("%-*s", c.width, fmt.Sprint(cell(c)))
	}
	fmt.Println(strings.Join(padded, " "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gracetrain:", err)
	os.Exit(1)
}
