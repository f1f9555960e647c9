// Command gracestat renders the cross-rank observability artifacts a run
// leaves in its -artifacts directory: the per-step skew timeline and top
// stragglers from XRANK_skew.json, the per-tensor compression-quality table
// from the RUN_*.json summaries, and the flight-recorder dumps the fault
// path froze.
//
// Usage:
//
//	gracestat -artifacts results            # everything the dir holds
//	gracestat -artifacts results -top 3     # top-3 straggler table
//	gracestat -flight results/FLIGHT_000_comm_allreduce.json
//
// The merged Chrome trace (XRANK_trace.json) is not rendered here — load it
// in Perfetto or chrome://tracing; gracestat points at it when present.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/grace"
	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/telemetry/xrank"
)

func main() {
	var (
		artifacts = flag.String("artifacts", "results", "artifacts directory to render")
		top       = flag.Int("top", 5, "straggler table length")
		timeline  = flag.Int("timeline", 20, "skew timeline rows (most recent steps; 0 = all)")
		flight    = flag.String("flight", "", "render one flight-recorder dump in detail instead of the directory overview")
	)
	flag.Parse()

	if *flight != "" {
		if err := renderFlight(*flight); err != nil {
			fatal(err)
		}
		return
	}
	any := false
	if renderSkew(filepath.Join(*artifacts, xrank.SkewFile), *top, *timeline) {
		any = true
	}
	if renderSummaries(*artifacts) {
		any = true
	}
	if renderFlightList(*artifacts) {
		any = true
	}
	if p := filepath.Join(*artifacts, xrank.TraceFile); exists(p) {
		fmt.Printf("merged trace: %s (load in Perfetto / chrome://tracing)\n", p)
		any = true
	}
	if !any {
		fatal(fmt.Errorf("no observability artifacts in %s (expected %s, RUN_*.json, or FLIGHT_*.json)",
			*artifacts, xrank.SkewFile))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gracestat:", err)
	os.Exit(1)
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// renderSkew prints the top-straggler table and the skew timeline from one
// XRANK_skew.json; reports whether the file was present.
func renderSkew(path string, top, timeline int) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var s xrank.SkewSummary
	if err := json.Unmarshal(raw, &s); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	fmt.Printf("skew analytics: %d ranks, %d attributed steps (%s)\n\n", s.Size, s.Steps, path)
	if len(s.StragglerSteps) > 0 {
		type rankCount struct {
			rank  int
			count int64
		}
		ranks := make([]rankCount, 0, len(s.StragglerSteps))
		for r, n := range s.StragglerSteps {
			ranks = append(ranks, rankCount{r, n})
		}
		sort.SliceStable(ranks, func(a, b int) bool { return ranks[a].count > ranks[b].count })
		if top > 0 && len(ranks) > top {
			ranks = ranks[:top]
		}
		fmt.Printf("top stragglers:\n%-6s %-16s %s\n", "rank", "straggler-steps", "share")
		for _, rc := range ranks {
			share := 0.0
			if s.Steps > 0 {
				share = float64(rc.count) / float64(s.Steps)
			}
			fmt.Printf("%-6d %-16d %5.1f%%\n", rc.rank, rc.count, 100*share)
		}
		fmt.Println()
	}
	rows := s.Rows
	if timeline > 0 && len(rows) > timeline {
		fmt.Printf("skew timeline (last %d of %d steps):\n", timeline, len(rows))
		rows = rows[len(rows)-timeline:]
	} else if len(rows) > 0 {
		fmt.Println("skew timeline:")
	}
	if len(rows) > 0 {
		fmt.Printf("%-8s %-10s %-12s %s\n", "step", "straggler", "skew", "per-rank wait")
		for _, row := range rows {
			waits := make([]string, len(row.WaitNs))
			for r, w := range row.WaitNs {
				waits[r] = time.Duration(w).Round(10 * time.Microsecond).String()
			}
			fmt.Printf("%-8d %-10d %-12s %s\n",
				row.Step, row.Straggler, time.Duration(row.SkewNs).Round(10*time.Microsecond),
				strings.Join(waits, " "))
		}
		fmt.Println()
	}
	return true
}

// renderSummaries prints the quality table and battery verdicts from every
// RUN_*.json in the directory; reports whether any were found.
func renderSummaries(dir string) bool {
	paths, _ := filepath.Glob(filepath.Join(dir, "RUN_*.json"))
	found := false
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var s harness.RunSummary
		if err := json.Unmarshal(raw, &s); err != nil {
			fmt.Fprintf(os.Stderr, "gracestat: skipping %s: %v\n", path, err)
			continue
		}
		found = true
		verdict := "pass"
		if !s.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("run summary %s: kind=%s workers=%d %s\n", filepath.Base(path), s.Kind, s.Workers, verdict)
		for _, st := range s.Straggler {
			fmt.Printf("  straggler battery: rank %d attributed %d/%d steps, max skew %.2fms (%s)\n",
				st.DelayedRank, st.Attributed, st.SkewSteps, st.MaxSkewMs, passStr(st.Pass))
		}
		if len(s.Quality) > 0 {
			rows := append([]grace.TensorQuality(nil), s.Quality...)
			grace.SortQualityByDensity(rows)
			fmt.Printf("  quality (densest wire first):\n")
			fmt.Printf("  %-24s %-12s %-10s %-12s %-12s %-8s %s\n",
				"tensor", "method", "params", "bits/param", "residual-L2", "faults", "fallbacks")
			for _, q := range rows {
				fmt.Printf("  %-24s %-12s %-10d %-12.3f %-12.4g %-8d %d\n",
					q.Name, q.Method, q.Params, q.BitsPerParam, q.ResidualL2, q.Faults, q.Fallbacks)
			}
		}
		fmt.Println()
	}
	return found
}

func passStr(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

// renderFlightList names every flight dump in the directory with its reason
// and contents at a glance; reports whether any were found.
func renderFlightList(dir string) bool {
	paths, _ := filepath.Glob(filepath.Join(dir, "FLIGHT_*.json"))
	if len(paths) == 0 {
		return false
	}
	sort.Strings(paths)
	fmt.Printf("flight recordings (%d):\n", len(paths))
	for _, path := range paths {
		d, err := readFlight(path)
		if err != nil {
			fmt.Printf("  %-44s unreadable: %v\n", filepath.Base(path), err)
			continue
		}
		faults := 0
		for _, ev := range d.Events {
			if ev.Kind == telemetry.KindFault {
				faults++
			}
		}
		fmt.Printf("  %-44s reason=%s events=%d faults=%d gen=%d\n",
			filepath.Base(path), d.Reason, len(d.Events), faults, d.Generation)
	}
	fmt.Printf("render one with: gracestat -flight %s\n\n", paths[0])
	return true
}

// renderFlight details one dump: the error, the fault events, and the tail
// of the op/step window leading up to the freeze.
func renderFlight(path string) error {
	d, err := readFlight(path)
	if err != nil {
		return err
	}
	fmt.Printf("flight recording %s\n", filepath.Base(path))
	fmt.Printf("reason:     %s\n", d.Reason)
	if d.Error != "" {
		fmt.Printf("error:      %s\n", d.Error)
	}
	fmt.Printf("frozen at:  %s (window %v, generation %d)\n\n",
		d.Time, time.Duration(d.WindowNs), d.Generation)
	var faults, others []telemetry.Event
	for _, ev := range d.Events {
		if ev.Kind == telemetry.KindFault {
			faults = append(faults, ev)
		} else {
			others = append(others, ev)
		}
	}
	if len(faults) > 0 {
		fmt.Printf("fault events (%d):\n%-6s %-12s %-10s %-8s %s\n", len(faults), "rank", "fault", "op", "seq", "gen")
		for _, ev := range faults {
			fmt.Printf("%-6d %-12s %-10s %-8d %d\n",
				ev.Rank, telemetry.FaultName(ev.Aux), telemetry.OpName(ev.Op), ev.Seq, ev.Gen)
		}
		fmt.Println()
	}
	const tail = 30
	if len(others) > tail {
		fmt.Printf("last %d of %d op/step events before the freeze:\n", tail, len(others))
		others = others[len(others)-tail:]
	} else if len(others) > 0 {
		fmt.Printf("op/step events (%d):\n", len(others))
	}
	if len(others) > 0 {
		fmt.Printf("%-6s %-6s %-10s %-8s %-12s %s\n", "rank", "kind", "op", "seq", "dur", "bytes")
		for _, ev := range others {
			kind, op := "op", telemetry.OpName(ev.Op)
			if ev.Kind == telemetry.KindStep {
				kind, op = "step", "-"
			}
			fmt.Printf("%-6d %-6s %-10s %-8d %-12v %d\n",
				ev.Rank, kind, op, ev.Seq, time.Duration(ev.DurNs).Round(time.Microsecond), ev.Bytes)
		}
	}
	if d.Goroutines != "" {
		fmt.Printf("\ngoroutine profile: %d bytes captured (in the JSON under \"goroutines\")\n", len(d.Goroutines))
	}
	return nil
}

func readFlight(path string) (*telemetry.FlightDump, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d telemetry.FlightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}
