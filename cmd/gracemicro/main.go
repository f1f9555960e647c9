// Command gracemicro runs the Figure 8 codec micro-benchmark in isolation:
// compress+decompress latency per method over a range of input sizes.
//
// Usage:
//
//	gracemicro [-sizes 1,10,100] [-reps 30] [-method topk] [-artifacts results]
//
// With -artifacts, each (method, size) point
// also lands as a machine-readable BENCH_codec_<method>_<size>.json artifact
// carrying mean ns/op, payload wire bytes, and the compression ratio.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	_ "repro/internal/compress/all"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

func main() {
	var (
		sizes  = flag.String("sizes", "1,10", "input sizes in MB, comma separated")
		reps   = flag.Int("reps", 10, "repetitions per point (paper: 30)")
		method = flag.String("method", "", "restrict to one method label (e.g. 'Topk(0.01)')")
		artDir = flag.String("artifacts", "", "write auto-named BENCH_codec_*.json artifacts into this directory")
	)
	flag.Parse()

	var mbs []int
	for _, s := range strings.Split(*sizes, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			fatal(fmt.Errorf("bad size %q", s))
		}
		mbs = append(mbs, v)
	}
	specs := harness.Suite()
	fmt.Printf("%-16s %-8s %-10s %-10s %-10s\n", "method", "input", "min(ms)", "mean(ms)", "max(ms)")
	for _, spec := range specs {
		if spec.Name == "none" {
			continue
		}
		if *method != "" && spec.Label != *method {
			continue
		}
		for _, mb := range mbs {
			d := mb * 1024 * 1024 / 4
			durs, err := harness.CodecLatency(spec, d, *reps, 7)
			if err != nil {
				fatal(err)
			}
			min, max, sum := durs[0], durs[0], time.Duration(0)
			for _, dd := range durs {
				if dd < min {
					min = dd
				}
				if dd > max {
					max = dd
				}
				sum += dd
			}
			mean := sum / time.Duration(len(durs))
			fmt.Printf("%-16s %-8s %-10.3f %-10.3f %-10.3f\n",
				spec.Label, fmt.Sprintf("%dMB", mb),
				float64(min)/1e6, float64(mean)/1e6, float64(max)/1e6)
			if *artDir != "" {
				wire, err := harness.CodecVolume(spec, d, 7)
				if err != nil {
					fatal(err)
				}
				a := telemetry.BenchArtifact{
					Name:             fmt.Sprintf("codec_%s_%dMB", spec.Label, mb),
					NsPerOp:          float64(mean.Nanoseconds()),
					SentBytes:        int64(wire),
					CompressionRatio: float64(4*d) / float64(wire),
					Extra: map[string]float64{
						"min_ns": float64(min.Nanoseconds()),
						"max_ns": float64(max.Nanoseconds()),
						"reps":   float64(len(durs)),
					},
				}
				path, err := telemetry.WriteBenchArtifact(*artDir, a)
				if err != nil {
					fatal(err)
				}
				fmt.Printf("    wrote %s\n", path)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gracemicro:", err)
	os.Exit(1)
}
