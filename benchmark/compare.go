package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// resultSet is the untraced results of one file of benchmark output, by
// workload then metric, in file order.
type resultSet map[string]map[string][]float64

// readResults parses a file of benchmark standard output (any number of
// runs, concatenated): every run-info line names the workload of the result
// line after it. Traced runs are skipped; only end-to-end metrics compare.
func readResults(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	var info *runInfo
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var probe struct {
			Workload string `json:"workload"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if probe.Workload != "" {
			info = &runInfo{}
			if err := json.Unmarshal(line, info); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			continue
		}
		var res result
		if err := json.Unmarshal(line, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if info == nil {
			return nil, fmt.Errorf("%s: result line without a run-info line before it", path)
		}
		if !info.Traced {
			if set[info.Workload] == nil {
				set[info.Workload] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				set[info.Workload][name] = append(set[info.Workload][name], v.Value)
			}
		}
		info = nil
	}
	return set, sc.Err()
}

// quartiles are Python's statistics.quantiles(xs, n=4), the method the
// driver uses; fewer than two values have no spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// compareFiles prints one row per workload and end-to-end metric of B
// against A under the metric's bound, and reports whether any row is worse.
func compareFiles(out io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-30s %-20s %5s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "median A", "median B", "B vs A", "spread A", "spread B", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a[w.Name][d.Name], b[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			change := (mb - ma) / ma // positive = worse
			if d.Better == "higher" {
				change = -change
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case max(sa, sb) > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(out, "%-30s %-20s %2d/%-2d %12.4f %12.4f %+7.2f%% %7.2f%% %7.2f%% %5.1f%%  %s\n",
				w.Name, d.Name, len(va), len(vb), ma, mb, 100*change, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	return worse, nil
}
