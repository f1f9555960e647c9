package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// checker is the correctness oracle: every miss is one failed step in the
// result and makes the command exit non-zero.
type checker struct {
	w     *workload
	seed  uint64
	fails []string
}

func (c *checker) failf(format string, args ...any) {
	c.fails = append(c.fails, fmt.Sprintf(format, args...))
}

// run checks what a single run can show: misses found inside it, and every
// sampled step's aggregates (training: the final parameters) bitwise equal
// on all ranks.
func (c *checker) run(what string, st *runStats) {
	for _, f := range st.fails {
		c.failf("%s: %s", what, f)
	}
	for r := 1; r < ranks; r++ {
		if len(st.sums[r]) != len(st.sums[0]) {
			c.failf("%s: rank %d sampled %d steps, rank 0 sampled %d", what, r, len(st.sums[r]), len(st.sums[0]))
			continue
		}
		for k := range st.sums[0] {
			if st.sums[r][k] != st.sums[0][k] {
				c.failf("%s: sample %d: rank %d aggregate differs from rank 0's", what, k, r)
			}
		}
	}
}

// sameAs requires two runs of the same steps on the same inputs to agree
// bitwise on their first samples and exactly on wire volume.
func (c *checker) sameAs(aName string, a *runStats, bName string, b *runStats) {
	for k := 0; k < refSteps && k < len(a.sums[0]) && k < len(b.sums[0]); k++ {
		if a.sums[0][k] != b.sums[0][k] {
			c.failf("%s and %s differ at sample %d", aName, bName, k)
		}
	}
	if a.steps == b.steps && a.sentBytes != b.sentBytes {
		c.failf("%s sent %.0f bytes, %s %.0f", aName, a.sentBytes, bName, b.sentBytes)
	}
}

// hubReference replays the first warm-up steps of a TCP exchange workload on
// the in-process hub: identical inputs must give identical aggregates on
// both transports.
func (c *checker) hubReference(in *inputs, warm *runStats) error {
	if c.w.train || c.w.hub {
		return nil
	}
	onHub := *c.w
	onHub.hub = true
	ref, err := newInstance(&onHub, in, nil)
	if err != nil {
		return err
	}
	defer ref.close()
	st, err := ref.run(refSteps, refSteps)
	if err != nil {
		return fmt.Errorf("hub reference: %w", err)
	}
	c.run("hub reference", st)
	c.sameAs("tcp warm-up", warm, "hub reference", st)
	return nil
}

//go:embed testdata/golden.json
var goldenJSON []byte

// golden maps workload -> seed -> mean loss of training steps 1-20 and 21-40.
type golden map[string]map[string][2]float64

// goldenTol absorbs floating-point contraction differences between CPU
// architectures; on one architecture the losses repeat exactly.
const goldenTol = 1e-3

// training checks a timed training run: the loss fell, and the head of the
// loss curve is the one recorded for this seed.
func (c *checker) training(st *runStats, opts options) {
	if !c.w.train {
		return
	}
	l := st.losses
	if len(l) < 40 {
		c.failf("training ran %d steps, the loss checks need 40", len(l))
		return
	}
	first, second, last := mean(l[:20]), mean(l[20:40]), mean(l[len(l)-20:])
	if !(last < first) {
		c.failf("mean loss of the last 20 steps %.6f is not below the first 20 %.6f", last, first)
	}
	base := goldenJSON
	if opts.update {
		// Add to what a previous -update left in the same directory.
		if buf, err := os.ReadFile(filepath.Join(opts.out, "golden.json")); err == nil {
			base = buf
		}
	}
	var g golden
	if err := json.Unmarshal(base, &g); err != nil {
		c.failf("golden.json: %v", err)
		return
	}
	key := strconv.FormatUint(c.seed, 10)
	if opts.update {
		if g[c.w.Name] == nil {
			g[c.w.Name] = map[string][2]float64{}
		}
		g[c.w.Name][key] = [2]float64{first, second}
		buf, err := json.MarshalIndent(g, "", "  ")
		if err == nil {
			if err = os.MkdirAll(opts.out, 0o755); err == nil {
				err = os.WriteFile(filepath.Join(opts.out, "golden.json"), append(buf, '\n'), 0o644)
			}
		}
		if err != nil {
			c.failf("writing golden.json: %v", err)
		}
		return
	}
	want, ok := g[c.w.Name][key]
	if !ok {
		return // no record for this seed: the relative checks above still ran
	}
	for i, got := range []float64{first, second} {
		if math.Abs(got-want[i]) > goldenTol*math.Abs(want[i]) {
			c.failf("mean loss of steps %d-%d is %.9f, golden %.9f", 20*i+1, 20*i+20, got, want[i])
		}
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
