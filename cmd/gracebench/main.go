// Command gracebench regenerates the paper's tables and figures.
//
// Usage:
//
//	gracebench -exp fig6d [-workers 8] [-net tcp-10g] [-scale 1.0] [-csv dir]
//	gracebench -list
//	gracebench -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	_ "repro/internal/compress/all"
	"repro/internal/harness"
	"repro/internal/simnet"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list    = flag.Bool("list", false, "list experiment ids")
		workers = flag.Int("workers", 8, "number of workers")
		net     = flag.String("net", "tcp-10g", "network preset: tcp-1g | tcp-10g | tcp-25g | rdma-25g | infinite")
		scale   = flag.Float64("scale", 1.0, "epoch scale factor (lower = faster, less faithful)")
		seed    = flag.Uint64("seed", 42, "experiment seed")
		csvDir  = flag.String("csv", "", "also write each table as CSV into this directory")
	)
	flag.Parse()

	if *list {
		exps := harness.Experiments()
		for _, id := range harness.ExperimentIDs() {
			e := exps[id]
			fmt.Printf("%-12s %-14s %s\n", e.ID, e.Paper, e.Description)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "gracebench: -exp or -list required")
		flag.Usage()
		os.Exit(2)
	}

	link, err := simnet.PresetByName(*net)
	if err != nil {
		fatal(err)
	}
	sc := harness.SweepConfig{Workers: *workers, Net: link, Scale: *scale, Seed: *seed}

	ids := []string{*exp}
	if *exp == "all" {
		ids = harness.ExperimentIDs()
	}
	exps := harness.Experiments()
	for _, id := range ids {
		e, ok := exps[id]
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q; try -list", id))
		}
		start := time.Now()
		tables, err := e.Run(sc)
		if err != nil {
			fatal(err)
		}
		for ti, t := range tables {
			t.Print(os.Stdout)
			if *csvDir != "" {
				if err := writeCSV(*csvDir, fmt.Sprintf("%s_%d.csv", id, ti), t); err != nil {
					fatal(err)
				}
			}
		}
		fmt.Printf("[%s finished in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

func writeCSV(dir, name string, t *harness.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	t.CSV(f)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gracebench:", err)
	os.Exit(1)
}
