package telemetry

import (
	"bufio"
	"expvar"
	"fmt"
	"io"
	"sort"
	"sync"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one grace_<name>_total counter per Counter,
// grace_strategy_bytes_{sent,recv}_total{strategy=...} for the per-strategy
// volume, and one grace_phase_seconds{phase=...} histogram per phase with
// power-of-two buckets. Zero-count phases still emit their _count/_sum
// series (scrapers want stable series sets) but skip the 40 bucket lines.
func (t *T) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 32<<10)
	if t == nil {
		return bw.Flush()
	}

	fmt.Fprintf(bw, "# HELP grace_telemetry_spans_enabled Whether phase-span recording is on (counters are always on).\n")
	fmt.Fprintf(bw, "# TYPE grace_telemetry_spans_enabled gauge\n")
	enabled := 0
	if t.Enabled() {
		enabled = 1
	}
	fmt.Fprintf(bw, "grace_telemetry_spans_enabled %d\n", enabled)

	for c := Counter(0); c < NumCounters; c++ {
		name := "grace_" + c.String()
		v := t.counters[c].Load()
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		fmt.Fprintf(bw, "%s %d\n", name, v)
	}

	if gs := t.Gauges(); len(gs) > 0 {
		for _, k := range sortedKeys(gs) {
			fmt.Fprintf(bw, "# TYPE grace_%s gauge\n", k)
			fmt.Fprintf(bw, "grace_%s %d\n", k, gs[k])
		}
	}

	fmt.Fprintf(bw, "# TYPE grace_strategy_bytes_sent_total counter\n")
	for i := 0; i < NumStrategies; i++ {
		fmt.Fprintf(bw, "grace_strategy_bytes_sent_total{strategy=%q} %d\n", strategyNames[i], t.stratSent[i].Load())
	}
	fmt.Fprintf(bw, "# TYPE grace_strategy_bytes_recv_total counter\n")
	for i := 0; i < NumStrategies; i++ {
		fmt.Fprintf(bw, "grace_strategy_bytes_recv_total{strategy=%q} %d\n", strategyNames[i], t.stratRecv[i].Load())
	}

	if ms := t.MethodSteps(); len(ms) > 0 {
		fmt.Fprintf(bw, "# HELP grace_autotune_method_steps_total Tensor-steps each compression method was the autotuner's active choice.\n")
		fmt.Fprintf(bw, "# TYPE grace_autotune_method_steps_total counter\n")
		for _, k := range sortedKeys(ms) {
			fmt.Fprintf(bw, "grace_autotune_method_steps_total{method=%q} %d\n", k, ms[k])
		}
	}

	fmt.Fprintf(bw, "# HELP grace_phase_seconds Time spent per training-step phase.\n")
	fmt.Fprintf(bw, "# TYPE grace_phase_seconds histogram\n")
	for p := 0; p < NumPhases; p++ {
		// One consistent capture per phase: buckets, _count, and _sum all
		// render from the same snapshot, so the +Inf cumulative count always
		// equals _count even while writers are mid-Record (the seqlock-style
		// retry in Histogram.Snapshot is the fix for the scrape-vs-writer
		// tear this exporter used to be exposed to).
		snap := t.phases[p].Snapshot()
		phase := Phase(p).String()
		if snap.Count > 0 {
			var cum int64
			for i := 0; i < HistBuckets; i++ {
				n := snap.Buckets[i]
				cum += n
				if n == 0 && i < HistBuckets-1 {
					continue // sparse render: only buckets that move the cumulative count
				}
				if i == HistBuckets-1 {
					fmt.Fprintf(bw, "grace_phase_seconds_bucket{phase=%q,le=\"+Inf\"} %d\n", phase, cum)
				} else {
					fmt.Fprintf(bw, "grace_phase_seconds_bucket{phase=%q,le=\"%g\"} %d\n", phase, float64(BucketUpper(i))/1e9, cum)
				}
			}
		} else {
			fmt.Fprintf(bw, "grace_phase_seconds_bucket{phase=%q,le=\"+Inf\"} 0\n", phase)
		}
		fmt.Fprintf(bw, "grace_phase_seconds_sum{phase=%q} %g\n", phase, float64(snap.SumNs)/1e9)
		fmt.Fprintf(bw, "grace_phase_seconds_count{phase=%q} %d\n", phase, snap.Count)
	}
	return bw.Flush()
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// publishExpvarOnce mirrors the Default registry into expvar under the
// "grace" key, so /debug/vars carries the same snapshot as /metrics.
// expvar.Publish panics on duplicate names, hence the Once; only Default is
// mirrored (expvar is process-global, so per-T mirrors would collide).
var publishExpvarOnce sync.Once

func publishExpvar() {
	publishExpvarOnce.Do(func() {
		expvar.Publish("grace", expvar.Func(func() any {
			return Default.Snapshot()
		}))
	})
}
