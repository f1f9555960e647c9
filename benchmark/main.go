// Command benchmark is the repository's performance benchmark: five
// workloads of two lockstep ranks over a loopback TCP ring and the in-process
// hub, each measured untraced (end-to-end metrics) or traced (per-layer
// metrics). See README.md for what each number means and BENCHMARK.json at
// the repository root for the contract the driver checks.
//
// One JSON object per workload is the last line written to standard output;
// the line before it describes the run (environment, step counts, checks).
// Human-readable tables go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/telemetry"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver-facing outcome of one workload run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runInfo is the provenance line printed before each result.
type runInfo struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Traced     bool              `json:"traced"`
	TimedSteps int               `json:"timed_steps"` // n of every per-step figure
	RefSteps   int               `json:"ref_steps,omitempty"`
	SetupReps  int               `json:"setup_reps"`
	Checks     []string          `json:"failed_checks,omitempty"`
	TraceFile  string            `json:"trace_file,omitempty"`
	Env        map[string]string `json:"env"`
	Claim      *string           `json:"claim"` // this benchmark claims no gain
}

type options struct {
	seed      uint64
	seconds   float64
	setupReps int // an untraced run sets up this often; setup_s is the median
	traced    bool
	out       string
	update    bool
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 12, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
		out     = flag.String("out", "", "directory for trace_<workload>.json (and golden.json with -update)")
		update  = flag.Bool("update", false, "write <out>/golden.json with this run's training losses added")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		smoke   = flag.Bool("smoke", false, "quick check: every run is 0.3 s with one set-up, untraced then traced")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files of benchmark output"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	opts := options{seed: *seed, seconds: *seconds, setupReps: 9, traced: *trace != 0, out: *out, update: *update}
	if opts.update && opts.out == "" {
		fatal(fmt.Errorf("-update needs -out"))
	}
	modes := []bool{opts.traced}
	if *smoke {
		opts.seconds, opts.setupReps = 0.3, 1
		modes = []bool{false, true}
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	ok := true
	for _, w := range todo {
		for _, opts.traced = range modes {
			info, res, err := runWorkload(w, opts)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			printTable(info, res)
			emit(info)
			emit(res)
			ok = ok && res.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func emit(v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(buf))
}

func printTable(info *runInfo, res *result) {
	defs := endToEnd
	if info.Traced {
		defs = perLayer
	}
	fmt.Fprintf(os.Stderr, "\n%s  seed=%d traced=%v n=%d steps_attempted=%d steps_failed=%d\n",
		info.Workload, info.Seed, info.Traced, info.TimedSteps, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	for _, c := range info.Checks {
		fmt.Fprintf(os.Stderr, "  FAILED CHECK: %s\n", c)
	}
}

func env() map[string]string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
		"ranks":      fmt.Sprint(ranks),
	}
}

// setUp generates the inputs, dials the transport, builds the engines and
// warms up: everything between process start and the first timed step.
func setUp(w *workload, seed uint64, rec *recorder) (*inputs, instance, *runStats, error) {
	in, err := genInputs(w, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	inst, err := newInstance(w, in, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	warmSteps, _ := inst.stepBounds()
	warm, err := inst.run(warmSteps, refSteps)
	if err != nil {
		inst.close()
		return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return in, inst, warm, nil
}

func runWorkload(w *workload, opts options) (*runInfo, *result, error) {
	reps := opts.setupReps
	if opts.traced {
		reps = 1
	}
	info := &runInfo{Workload: w.Name, Seed: opts.seed, Traced: opts.traced, SetupReps: reps, Env: env()}
	chk := &checker{w: w, seed: opts.seed}
	var (
		in     *inputs
		inst   instance
		warm   *runStats
		setups []float64
	)
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if in, inst, warm, err = setUp(w, opts.seed, nil); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { inst.close() }()
	chk.run("warm-up", warm)
	if err := chk.hubReference(in, warm); err != nil {
		return nil, nil, err
	}

	// The step count is fixed before the window opens, from the median step
	// of the warm-up's second half, so the ranks need no agreement on when
	// to stop.
	steps := int(opts.seconds * 1e9 / float64(median(warm.stepNs[len(warm.stepNs)/2:])))
	if _, least := inst.stepBounds(); steps < least {
		steps = least
	}
	res := &result{Metrics: map[string]value{}}
	if !opts.traced {
		st, err := inst.run(steps, 1)
		if err != nil {
			return nil, nil, err
		}
		chk.run("timed", st)
		chk.training(st, opts)
		info.TimedSteps = st.steps
		res.Attempted = st.steps
		endToEndMetrics(res.Metrics, st, median(setups))
	} else {
		// A quarter of the window runs untraced on the same inputs, as the
		// base of trace.overhead_pct; the rest runs with every wrapper in.
		ref, err := inst.run(steps/4, 1)
		if err != nil {
			return nil, nil, err
		}
		chk.run("untraced reference", ref)
		inst.close()

		rec := newRecorder()
		_, tinst, twarm, err := setUp(w, opts.seed, rec)
		if err != nil {
			return nil, nil, err
		}
		inst = tinst
		chk.run("traced warm-up", twarm)
		chk.sameAs("traced warm-up", twarm, "untraced warm-up", warm)
		tsteps := steps - ref.steps
		rec.reset(twarm.steps, tsteps)
		telemetry.Default.Enable(true)
		before := phaseSums()
		st, err := inst.run(tsteps, 1)
		after := phaseSums()
		telemetry.Default.Enable(false)
		if err != nil {
			return nil, nil, err
		}
		chk.run("traced", st)
		info.TimedSteps, info.RefSteps = st.steps, ref.steps
		res.Attempted = st.steps + ref.steps
		perLayerMetrics(res.Metrics, rec, st, ref, inst.dialTime(), before, after)
		if opts.out != "" {
			if info.TraceFile, err = rec.writeChrome(opts.out, w.Name); err != nil {
				return nil, nil, err
			}
		}
	}
	info.Checks = chk.fails
	res.Failed = len(chk.fails)
	res.Correct = res.Failed == 0
	return info, res, nil
}
