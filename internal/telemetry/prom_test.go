package telemetry

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// parsePhaseSeries extracts the bucket series (in emission order), _sum, and
// _count for one phase from a Prometheus text exposition.
func parsePhaseSeries(t *testing.T, out, phase string) (les []string, cums []int64, sum float64, count int64) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		phaseTag := `phase="` + phase + `"`
		switch {
		case strings.HasPrefix(line, "grace_phase_seconds_bucket{") && strings.Contains(line, phaseTag):
			i := strings.Index(line, `le="`)
			j := strings.Index(line[i+4:], `"`)
			les = append(les, line[i+4:i+4+j])
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			cums = append(cums, v)
		case strings.HasPrefix(line, "grace_phase_seconds_sum{") && strings.Contains(line, phaseTag):
			var err error
			sum, err = strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
			if err != nil {
				t.Fatalf("bad sum line %q: %v", line, err)
			}
		case strings.HasPrefix(line, "grace_phase_seconds_count{") && strings.Contains(line, phaseTag):
			var err error
			count, err = strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
		}
	}
	return les, cums, sum, count
}

func TestPrometheusLabelEscaping(t *testing.T) {
	reg := New()
	reg.AddMethodSteps("top_k \"0.01\"\\weird\nline", 5)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// %q must have escaped the quote, backslash, and newline — the raw forms
	// would corrupt the exposition format.
	want := `grace_autotune_method_steps_total{method="top_k \"0.01\"\\weird\nline"} 5`
	if !strings.Contains(out, want) {
		t.Fatalf("escaped method label missing; output:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "weird") && strings.Count(line, "\n") != 0 {
			t.Fatalf("raw newline leaked into series line %q", line)
		}
	}
}

func TestPrometheusHistogramBucketBoundaries(t *testing.T) {
	reg := New()
	reg.Enable(true)
	// Land observations in known buckets: ≤1ns, ~1µs, ~1ms, and the top
	// bucket (recorded directly — Observe would need a real 9-minute wait).
	reg.phases[PhaseCompress].Record(1)
	reg.phases[PhaseCompress].Record(800 * time.Nanosecond)
	reg.phases[PhaseCompress].Record(time.Millisecond)
	reg.phases[PhaseCompress].Record(20 * time.Minute)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	les, cums, sum, count := parsePhaseSeries(t, buf.String(), "compress")
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if len(les) == 0 || les[len(les)-1] != "+Inf" {
		t.Fatalf("bucket series must end at +Inf, got les=%v", les)
	}
	if cums[len(cums)-1] != count {
		t.Fatalf("cumulative +Inf bucket %d != count %d", cums[len(cums)-1], count)
	}
	for i := 1; i < len(cums); i++ {
		if cums[i] < cums[i-1] {
			t.Fatalf("bucket counts must be cumulative: %v", cums)
		}
	}
	// le values (except +Inf) must be ascending upper bounds.
	var prev float64 = -1
	for _, le := range les[:len(les)-1] {
		v, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("bad le %q: %v", le, err)
		}
		if v <= prev {
			t.Fatalf("le boundaries not ascending: %v", les)
		}
		prev = v
	}
	if wantSum := (float64(1) + 800 + 1e6 + float64(20*time.Minute)) / 1e9; sum < wantSum*0.999 || sum > wantSum*1.001 {
		t.Fatalf("sum = %g, want ≈%g", sum, wantSum)
	}

	// A phase with zero observations still emits a stable series set.
	les0, cums0, _, count0 := parsePhaseSeries(t, buf.String(), "decode")
	if count0 != 0 || len(les0) != 1 || les0[0] != "+Inf" || cums0[0] != 0 {
		t.Fatalf("empty phase series wrong: les=%v cums=%v count=%d", les0, cums0, count0)
	}
}

func TestPrometheusEmptyRegistry(t *testing.T) {
	reg := New()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Every counter still emits (at zero), every phase emits its zero
	// histogram, and every non-comment line is "name[{labels}] value".
	for c := Counter(0); c < NumCounters; c++ {
		if !strings.Contains(out, "grace_"+c.String()+" 0") {
			t.Fatalf("empty registry missing counter %s:\n%s", c.String(), out)
		}
	}
	for sc := bufio.NewScanner(strings.NewReader(out)); sc.Scan(); {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp <= 0 {
			t.Fatalf("malformed series line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("series %q has non-numeric value: %v", line, err)
		}
	}
	if !strings.Contains(out, `grace_phase_seconds_bucket{phase="compress",le="+Inf"} 0`) {
		t.Fatal("empty registry should emit zero +Inf buckets")
	}
}

// TestPrometheusHeartbeatNaming: the heartbeat family is uniformly
// heartbeat_*-prefixed; the pre-unification peer_deaths_total name is gone
// from the exposition and the snapshot alike.
func TestPrometheusHeartbeatNaming(t *testing.T) {
	reg := New()
	reg.Add(CtrPeerDeaths, 3)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "grace_heartbeat_peer_deaths_total 3") {
		t.Fatalf("canonical heartbeat_peer_deaths_total missing:\n%s", out)
	}
	if strings.Contains(out, "grace_peer_deaths_total") {
		t.Fatalf("expired alias grace_peer_deaths_total still served:\n%s", out)
	}
	snap := reg.Snapshot()
	if snap.Counters["heartbeat_peer_deaths_total"] != 3 {
		t.Fatalf("snapshot missing canonical counter: %+v", snap.Counters)
	}
	if _, ok := snap.Counters["peer_deaths_total"]; ok {
		t.Fatal("snapshot carries the expired alias")
	}
}

// TestScraperVsWriterHistogramConsistency is the -race regression for the
// snapshot tear: a scrape taken mid-Record used to pair a counter value with
// a half-updated bucket set, so the +Inf cumulative count could disagree
// with _count. With Histogram.Snapshot every render is internally
// consistent no matter how hard the writers hammer.
func TestScraperVsWriterHistogramConsistency(t *testing.T) {
	reg := New()
	reg.Enable(true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			d := time.Duration(seed + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				reg.phases[PhaseCompress].Record(d)
				d = (d * 7) % time.Millisecond
			}
		}(w)
	}

	var lastCount int64
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		_, cums, _, count := parsePhaseSeries(t, buf.String(), "compress")
		if len(cums) == 0 || cums[len(cums)-1] != count {
			t.Fatalf("scrape tore: +Inf cumulative %v != count %d", cums, count)
		}
		if count < lastCount {
			t.Fatalf("count went backwards: %d -> %d", lastCount, count)
		}
		lastCount = count

		snap := reg.phases[PhaseCompress].Snapshot()
		var cum int64
		for _, b := range snap.Buckets {
			cum += b
		}
		if cum != snap.Count {
			t.Fatalf("HistogramSnapshot inconsistent: bucket sum %d != count %d", cum, snap.Count)
		}
	}
	close(stop)
	wg.Wait()
}
