package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPhaseAndCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for p := 0; p < NumPhases; p++ {
		n := Phase(p).String()
		if n == "" || n == "unknown" {
			t.Fatalf("phase %d has no name", p)
		}
		if seen[n] {
			t.Fatalf("duplicate phase name %q", n)
		}
		seen[n] = true
	}
	for c := Counter(0); c < NumCounters; c++ {
		n := c.String()
		if n == "" || n == "unknown" {
			t.Fatalf("counter %d has no name", c)
		}
		if seen[n] {
			t.Fatalf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
	if Phase(200).String() != "unknown" || Counter(200).String() != "unknown" {
		t.Fatal("out-of-range names should be unknown")
	}
}

func TestNilReceiverSafe(t *testing.T) {
	var nilT *T
	nilT.Add(CtrSteps, 1)
	nilT.AddStrategyBytes(1, 2, 3)
	nilT.Observe(PhaseCompress, 0, 0, "", time.Now())
	nilT.RecordFault(0, OpAllreduce, 1, FaultError, 0)
	nilT.RecordOp(0, OpAllreduce, 1, 8, time.Now())
	nilT.Enable(true)
	nilT.Reset()
	nilT.SetTracer(nil)
	if nilT.Enabled() || nilT.Value(CtrSteps) != 0 {
		t.Fatal("nil receiver should read zero")
	}
	s := nilT.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatal("nil snapshot should be empty")
	}
	var buf bytes.Buffer
	if err := nilT.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestDisabledSpansAreNoops(t *testing.T) {
	reg := New()
	if !reg.Start().IsZero() {
		t.Fatal("Start should return zero time while disabled")
	}
	reg.Observe(PhaseCompress, 0, 0, "", time.Time{})
	if reg.PhaseHistogram(PhaseCompress).Count() != 0 {
		t.Fatal("disabled span must not record")
	}
	reg.Enable(true)
	st := reg.Start()
	if st.IsZero() {
		t.Fatal("Start should return real time when enabled")
	}
	reg.Observe(PhaseCompress, 0, 0, "t0", st)
	if h := reg.PhaseHistogram(PhaseCompress); h.Count() != 1 || h.SumNs() <= 0 {
		t.Fatal("enabled span must record a positive duration")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	if h.QuantileNs(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 1000 observations of ~1µs and 10 of ~1ms: p50 lands in the µs decade,
	// p99.9-ish in the ms decade.
	for i := 0; i < 1000; i++ {
		h.Record(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(time.Millisecond)
	}
	if got := h.Count(); got != 1010 {
		t.Fatalf("count = %d, want 1010", got)
	}
	if got := h.SumNs(); got != 1000*1000+10*1000000 {
		t.Fatalf("sum = %d", got)
	}
	p50 := h.QuantileNs(0.5)
	if p50 < 512 || p50 > 2048 {
		t.Fatalf("p50 = %dns, want within the 1µs bucket neighborhood", p50)
	}
	p999 := h.QuantileNs(0.999)
	if p999 < 512*1024 || p999 > 2*1024*1024 {
		t.Fatalf("p99.9 = %dns, want within the 1ms bucket neighborhood", p999)
	}
	// Extremes must not panic or fall outside the observed range.
	if q := h.QuantileNs(0); q < 1 {
		t.Fatalf("q0 = %d", q)
	}
	if q := h.QuantileNs(1); q > 2*1024*1024 {
		t.Fatalf("q1 = %d", q)
	}
	h.Record(-time.Second) // negative durations clamp to bucket 0
	if h.Bucket(0) != 1 {
		t.Fatal("negative duration should land in bucket 0")
	}
	h.Record(time.Duration(1) << 62) // absurd duration clamps to top bucket
	if h.Bucket(HistBuckets-1) != 1 {
		t.Fatal("huge duration should land in the top bucket")
	}
}

func TestSnapshotOmitsZeroes(t *testing.T) {
	reg := New()
	reg.Enable(true)
	reg.Add(CtrDecodeFaults, 3)
	reg.AddStrategyBytes(0, 100, 200)
	reg.Observe(PhaseDecode, 0, 1, "", reg.Start())
	s := reg.Snapshot()
	if s.Counters["decode_faults_total"] != 3 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if _, ok := s.Counters["steps_total"]; ok {
		t.Fatal("zero counters should be omitted")
	}
	if s.Strategies["allgather"] != (StrategyBytesStat{SentBytes: 100, RecvBytes: 200}) {
		t.Fatalf("strategies = %v", s.Strategies)
	}
	if len(s.Strategies) != 1 {
		t.Fatal("zero strategies should be omitted")
	}
	ps, ok := s.Phases["decode"]
	if !ok || ps.Count != 1 || ps.TotalNs <= 0 || ps.P50Ns <= 0 || ps.P99Ns < ps.P50Ns {
		t.Fatalf("phases = %+v", s.Phases)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
	reg.Reset()
	s = reg.Snapshot()
	if len(s.Counters)+len(s.Strategies)+len(s.Phases) != 0 {
		t.Fatalf("reset snapshot should be empty: %+v", s)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := New()
	reg.Enable(true)
	reg.Add(CtrHeartbeatMisses, 7)
	reg.AddStrategyBytes(1, 4096, 8192)
	reg.Observe(PhaseCompress, 0, 1, "t", reg.Start())
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"grace_telemetry_spans_enabled 1",
		"grace_heartbeat_misses_total 7",
		`grace_strategy_bytes_sent_total{strategy="allreduce"} 4096`,
		`grace_strategy_bytes_recv_total{strategy="allreduce"} 8192`,
		`grace_phase_seconds_count{phase="compress"} 1`,
		`grace_phase_seconds_bucket{phase="compress",le="+Inf"} 1`,
		`grace_phase_seconds_bucket{phase="decode",le="+Inf"} 0`,
		"# TYPE grace_phase_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and end at the count.
	if !strings.Contains(out, `grace_phase_seconds_sum{phase="compress"}`) {
		t.Fatal("missing sum series")
	}
}

func TestTracerProducesValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	reg := New()
	reg.Enable(true)
	reg.SetTracer(tr)
	reg.Observe(PhaseCompress, 0, 1, "tensor \"a\"", reg.Start())
	reg.Observe(PhaseWireSend, 1, TIDWireSend, "", reg.Start())
	reg.RecordOp(1, OpAllgather, 4, 512, reg.Start())
	reg.RecordFault(1, OpAllgather, 4, FaultCorrupt, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var complete, instant, meta int
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			complete++
			switch ev["name"] {
			case "compress":
				if ev["args"].(map[string]any)["detail"] != `tensor "a"` {
					t.Fatalf("detail not round-tripped: %v", ev)
				}
				if ev["pid"].(float64) != 0 || ev["tid"].(float64) != 1 {
					t.Fatalf("pid/tid wrong: %v", ev)
				}
			case "allgather":
				if ev["args"].(map[string]any)["bytes"] != 512.0 || ev["tid"].(float64) != tidOps {
					t.Fatalf("op event not on the collectives track with its bytes: %v", ev)
				}
			}
		case "i":
			instant++
			if ev["name"] != "fault:corrupt:allgather" || ev["pid"].(float64) != 1 {
				t.Fatalf("incident rendered wrong: %v", ev)
			}
		case "M":
			meta++
		}
	}
	if complete != 3 || instant != 1 || meta == 0 {
		t.Fatalf("events: complete=%d instant=%d meta=%d", complete, instant, meta)
	}
}

func TestTracerUncleanFileStillLoadable(t *testing.T) {
	// A crash before Close leaves an unterminated array; appending the
	// terminator must yield valid JSON (what lenient viewers do implicitly).
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	reg := New()
	reg.Enable(true)
	reg.SetTracer(tr)
	reg.Observe(PhaseDecode, 0, 1, "", reg.Start())
	tr.mu.Lock()
	tr.w.Flush()
	tr.mu.Unlock()
	var events []map[string]any
	if err := json.Unmarshal(append(buf.Bytes(), "\n]"...), &events); err != nil {
		t.Fatalf("unterminated trace not recoverable: %v\n%s", err, buf.String())
	}
	if len(events) == 0 {
		t.Fatal("no events flushed")
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := New()
	reg.Enable(true)
	reg.Add(CtrSteps, 1)
	reg.Observe(PhaseAggregate, 0, 0, "", reg.Start())
	srv, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "grace_steps_total 1") {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}
	if !strings.Contains(body, `grace_phase_seconds_count{phase="aggregate"} 1`) {
		t.Fatalf("/metrics missing phase series:\n%s", body)
	}
	code, _ = get("/debug/pprof/cmdline")
	if code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
	code, body = get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars: %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
}

func TestDefaultExpvarMirror(t *testing.T) {
	// Only the Default registry mirrors into expvar, and doing it twice (two
	// Handler calls) must not panic on duplicate Publish.
	_ = Default.Handler()
	_ = Default.Handler()
}

// TestConcurrentHammer drives counters, strategy bytes, spans, events,
// snapshots, window cuts, Prometheus rendering, tracing, and Reset from many
// goroutines at once; its real assertion is `go test -race` finding no data
// races.
func TestConcurrentHammer(t *testing.T) {
	reg := New()
	reg.Enable(true)
	tr := NewTracer(io.Discard)
	reg.SetTracer(tr)
	const workers = 8
	const iters = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Add(CtrWireBytesSent, int64(i))
				reg.AddStrategyBytes(i%NumStrategies, 10, 20)
				st := reg.Start()
				reg.Observe(Phase(i%NumPhases), w, w%4, "t", st)
				reg.RecordOp(w, OpAllreduce, int64(i), 64, st)
				if i%37 == 0 {
					reg.RecordFault(w, OpAllreduce, int64(i), FaultRetry, 0)
				}
			}
		}()
	}
	// Concurrent readers (scraper + artifact writer) and one resetter.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = reg.Snapshot()
			_ = reg.WritePrometheus(io.Discard)
			_, _ = reg.Events(0)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			reg.Reset()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDisabledSpan proves the disabled fast path allocates nothing and
// costs only the atomic enabled check.
func BenchmarkDisabledSpan(b *testing.B) {
	reg := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := reg.Start()
		reg.Observe(PhaseCompress, 0, 0, "tensor", st)
		reg.Add(CtrWireBytesSent, 1)
	}
}

// BenchmarkEnabledSpanNoTrace measures span cost with histograms live but no
// tracer attached (the -telemetry-addr steady state).
func BenchmarkEnabledSpanNoTrace(b *testing.B) {
	reg := New()
	reg.Enable(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := reg.Start()
		reg.Observe(PhaseCompress, 0, 0, "tensor", st)
	}
}

func ExamplePhase() {
	fmt.Println(PhaseCompress, PhaseWireRecv, PhaseCheckpoint)
	// Output: compress wire_recv checkpoint
}
