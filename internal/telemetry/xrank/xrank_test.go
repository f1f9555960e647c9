package xrank

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// The event ring, its windows and the flight recorder are telemetry.T's; the
// tests below pin the contract the aggregator builds on.

// ringCapacity is telemetry's event ring size.
const ringCapacity = 32768

func enabledRecorder() *telemetry.T {
	r := telemetry.New()
	r.Enable(true)
	return r
}

func TestRecorderDisabledIsNoop(t *testing.T) {
	r := telemetry.New()
	if r.Enabled() {
		t.Fatal("new recorder should start disabled")
	}
	if !r.Start().IsZero() {
		t.Fatal("Start should return the zero time while disabled")
	}
	r.RecordOp(0, telemetry.OpAllreduce, 1, 10, time.Now()) // t0 nonzero but disabled
	r.RecordFault(0, telemetry.OpAllreduce, 1, telemetry.FaultError, 0)
	if evs, _ := r.Events(0); len(evs) != 0 {
		t.Fatalf("disabled recorder stored %d events", len(evs))
	}
}

func TestRecordAndCutWindows(t *testing.T) {
	r := enabledRecorder()
	r.SetGeneration(3)
	t0 := r.Start()
	if t0.IsZero() {
		t.Fatal("Start returned the zero time while enabled")
	}
	r.RecordOp(1, telemetry.OpAllreduce, 7, 4096, t0)
	r.RecordStep(1, 42, 9000, t0)
	r.RecordFault(2, telemetry.OpAllgather, 8, telemetry.FaultRetry, 0)

	evs, max := r.Events(0)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	op, step, fault := evs[0], evs[1], evs[2]
	if op.Kind != telemetry.KindOp || op.Rank != 1 || op.Op != telemetry.OpAllreduce || op.Seq != 7 ||
		op.Bytes != 4096 || op.Gen != 3 || op.T0Ns != t0.UnixNano() || op.DurNs < 0 {
		t.Fatalf("bad op event: %+v", op)
	}
	if step.Kind != telemetry.KindStep || step.Seq != 42 || step.Aux != 9000 {
		t.Fatalf("bad step event: %+v", step)
	}
	if fault.Kind != telemetry.KindFault || fault.Rank != 2 || fault.Aux != telemetry.FaultRetry || fault.T0Ns == 0 {
		t.Fatalf("bad fault event: %+v", fault)
	}

	// A second cut from max sees only newer events.
	if evs2, _ := r.Events(max); len(evs2) != 0 {
		t.Fatalf("window re-read returned %d events, want 0", len(evs2))
	}
	r.RecordOp(0, telemetry.OpBarrier, 9, 0, r.Start())
	evs3, _ := r.Events(max)
	if len(evs3) != 1 || evs3[0].Op != telemetry.OpBarrier {
		t.Fatalf("incremental window wrong: %+v", evs3)
	}
}

func TestRingWraparoundKeepsNewest(t *testing.T) {
	r := enabledRecorder()
	const lapped = 12
	for i := 0; i < ringCapacity+lapped; i++ {
		r.RecordOp(0, telemetry.OpAllreduce, int64(i), 0, r.Start())
	}
	evs, _ := r.Events(0)
	if len(evs) != ringCapacity {
		t.Fatalf("got %d events, want ring capacity %d", len(evs), ringCapacity)
	}
	for i, ev := range evs {
		if want := int64(lapped + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d (newest %d kept in order)", i, ev.Seq, want, ringCapacity)
		}
	}
}

// TestConcurrentScrapeWhileRecording is the -race regression for the seqlock
// slots: readers must never observe a half-written event, and all slot access
// is atomic.
func TestConcurrentScrapeWhileRecording(t *testing.T) {
	r := enabledRecorder() // four writers lap the ring within milliseconds
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.RecordOp(rank, telemetry.OpAllreduce, int64(i), int64(i), r.Start())
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		evs, _ := r.Events(0)
		for _, ev := range evs {
			if ev.Kind != telemetry.KindOp || ev.Op != telemetry.OpAllreduce || ev.Rank < 0 || ev.Rank > 3 {
				t.Errorf("torn event escaped seq validation: %+v", ev)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestWindowCodecRoundTrip(t *testing.T) {
	evs := []telemetry.Event{
		{Kind: telemetry.KindOp, Rank: 2, Op: telemetry.OpAllgather, Seq: 11, Gen: 1, T0Ns: 1 << 40, DurNs: 12345, Bytes: 99},
		{Kind: telemetry.KindStep, Rank: 2, Op: telemetry.OpStep, Seq: 5, T0Ns: -3, DurNs: 0, Aux: 7},
	}
	rank, got, err := DecodeWindow(EncodeWindow(2, evs))
	if err != nil || rank != 2 {
		t.Fatalf("decode: rank=%d err=%v", rank, err)
	}
	if len(got) != len(evs) {
		t.Fatalf("got %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d mismatch: %+v != %+v", i, got[i], evs[i])
		}
	}
}

func TestDecodeWindowHostileInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":      nil,
		"bad magic":  {0x00, windowVersion, 0, 0},
		"bad ver":    {windowMagic, 99, 0, 0},
		"truncated":  EncodeWindow(1, []telemetry.Event{{Kind: telemetry.KindOp, Seq: 1}})[:6],
		"huge count": append([]byte{windowMagic, windowVersion, 0}, 0xff, 0xff, 0xff, 0xff, 0x7f),
	}
	for name, b := range cases {
		if _, _, err := DecodeWindow(b); !errors.Is(err, ErrBadWindow) {
			t.Errorf("%s: err = %v, want ErrBadWindow", name, err)
		}
	}
}

// fakeGather simulates the collective plane for a 2-rank group where this
// test plays rank 0 and a canned window stands in for rank 1.
type fakeGather struct{ peer []byte }

func (f fakeGather) AllgatherBytes(b []byte) ([][]byte, error) {
	return [][]byte{b, f.peer}, nil
}

func TestAggregatorMergesRanks(t *testing.T) {
	r := enabledRecorder()
	r.RecordOp(0, telemetry.OpAllreduce, 1, 10, r.Start())
	r.RecordOp(1, telemetry.OpAllreduce, 1, 10, r.Start()) // in-process hub: shared ring

	peer := EncodeWindow(1, []telemetry.Event{{Kind: telemetry.KindOp, Rank: 1, Op: telemetry.OpAllreduce, Seq: 1, DurNs: 5}})
	a := NewAggregator(r, 0, 2)
	if err := a.Exchange(fakeGather{peer: peer}); err != nil {
		t.Fatal(err)
	}
	merged := a.Merged()
	if len(merged) != 2 {
		t.Fatalf("merged %d events, want 2 (own rank-0 + peer rank-1)", len(merged))
	}
	var ranks []int64
	for _, ev := range merged {
		ranks = append(ranks, ev.Rank)
	}
	if !(ranks[0] == 0 && ranks[1] == 1) && !(ranks[0] == 1 && ranks[1] == 0) {
		t.Fatalf("merged ranks = %v", ranks)
	}

	// Second exchange: window already cut, own contribution now empty.
	if err := a.Exchange(fakeGather{peer: EncodeWindow(1, nil)}); err != nil {
		t.Fatal(err)
	}
	if len(a.Merged()) != 2 {
		t.Fatalf("re-exchange duplicated events: %d", len(a.Merged()))
	}
}

func TestAggregatorNonRootKeepsNothing(t *testing.T) {
	r := enabledRecorder()
	r.RecordOp(1, telemetry.OpAllreduce, 1, 10, r.Start())
	a := NewAggregator(r, 1, 2)
	if err := a.Exchange(fakeGather{peer: EncodeWindow(0, nil)}); err != nil {
		t.Fatal(err)
	}
	if a.Merged() != nil {
		t.Fatal("non-root aggregator accumulated events")
	}
}

// synthSkew builds a merged stream for `size` ranks over `steps` steps where
// rank `slow` always arrives last: it waits 1ms in each collective while the
// others wait 5ms.
func synthSkew(size, steps, slow int) []telemetry.Event {
	var evs []telemetry.Event
	base := int64(1e12)
	stepNs := int64(20e6)
	for s := 0; s < steps; s++ {
		t0 := base + int64(s)*stepNs
		for r := 0; r < size; r++ {
			evs = append(evs, telemetry.Event{Kind: telemetry.KindStep, Rank: int64(r), Seq: int64(s), T0Ns: t0, DurNs: stepNs - 1e6})
			for op := 0; op < 3; op++ {
				wait := int64(5e6)
				if r == slow {
					wait = 1e6
				}
				evs = append(evs, telemetry.Event{
					Kind: telemetry.KindOp, Rank: int64(r), Op: telemetry.OpAllreduce,
					Seq: int64(s*3 + op), T0Ns: t0 + int64(op)*3e6, DurNs: wait, Bytes: 128,
				})
			}
		}
	}
	return evs
}

func TestComputeSkewAttributesDelayedRank(t *testing.T) {
	evs := synthSkew(4, 10, 2)
	rows := ComputeSkew(evs, 4)
	if len(rows) != 10 {
		t.Fatalf("got %d skew rows, want 10", len(rows))
	}
	for _, row := range rows {
		if row.Straggler != 2 {
			t.Fatalf("step %d attributed straggler %d, want 2 (%+v)", row.Step, row.Straggler, row)
		}
		if row.SkewNs != 3*(5e6-1e6) {
			t.Fatalf("step %d skew = %d, want %d", row.Step, row.SkewNs, int64(3*(5e6-1e6)))
		}
		if row.Ops != 12 {
			t.Fatalf("step %d ops = %d, want 12", row.Step, row.Ops)
		}
	}
	counts := StragglerCounts(rows, 4)
	if counts[2] != 10 {
		t.Fatalf("straggler counts = %v, want rank 2 at 10", counts)
	}
}

func TestComputeSkewDropsPartialSteps(t *testing.T) {
	evs := synthSkew(2, 3, 1)
	// Strip rank 1's ops from step 2: that step is incomplete and must drop.
	var filtered []telemetry.Event
	for _, ev := range evs {
		if ev.Kind == telemetry.KindOp && ev.Rank == 1 && ev.Seq >= 6 {
			continue
		}
		filtered = append(filtered, ev)
	}
	rows := ComputeSkew(filtered, 2)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (partial step dropped)", len(rows))
	}
	// Ops outside any step window must not be assigned (e.g. the
	// aggregation exchange itself runs between steps).
	between := append(evs, telemetry.Event{Kind: telemetry.KindOp, Rank: 0, Op: telemetry.OpAllgather, Seq: 99,
		T0Ns: 1e12 + 100*20e6, DurNs: 1e6})
	if got := ComputeSkew(between, 2); len(got) != 3 {
		t.Fatalf("out-of-window op changed row count: %d", len(got))
	}
}

func TestFlightDumpWritesAndRateLimits(t *testing.T) {
	r := enabledRecorder()
	dir := t.TempDir()
	r.ConfigureFlight(dir)
	r.RecordOp(1, telemetry.OpAllreduce, 3, 64, r.Start())
	r.RecordFault(1, telemetry.OpAllreduce, 3, telemetry.FaultError, 0)

	path := r.Flight("peer_dead", errors.New("rank 1 allreduce: boom"))
	if path == "" {
		t.Fatal("Flight returned empty path")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump telemetry.FlightDump
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Reason != "peer_dead" || dump.Error == "" {
		t.Fatalf("dump header wrong: reason=%q error=%q", dump.Reason, dump.Error)
	}
	if len(dump.Events) != 2 {
		t.Fatalf("dump has %d events, want 2", len(dump.Events))
	}
	if dump.Telemetry == nil {
		t.Fatal("dump missing telemetry snapshot")
	}
	if !bytes.Contains([]byte(dump.Goroutines), []byte("goroutine")) {
		t.Fatal("dump missing goroutine profile")
	}

	// Immediate second dump is rate-limited away.
	if p2 := r.Flight("peer_dead", nil); p2 != "" {
		t.Fatalf("second dump within rate window wrote %q", p2)
	}
}

func TestFlightDisarmed(t *testing.T) {
	r := enabledRecorder()
	if p := r.Flight("x", nil); p != "" {
		t.Fatalf("unconfigured flight wrote %q", p)
	}
}

func TestWriteArtifacts(t *testing.T) {
	r := enabledRecorder()
	a := NewAggregator(r, 0, 4)
	a.merged = synthSkew(4, 5, 1)
	a.merged = append(a.merged, telemetry.Event{Kind: telemetry.KindFault, Rank: 1, Op: telemetry.OpAllreduce, Seq: 7,
		Aux: telemetry.FaultError, T0Ns: 1e12 + 1})
	dir := t.TempDir()
	if err := a.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}

	tb, err := os.ReadFile(filepath.Join(dir, TraceFile))
	if err != nil {
		t.Fatal(err)
	}
	var trace []map[string]any
	if err := json.Unmarshal(tb, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var sawFault, sawProcess bool
	for _, ev := range trace {
		if name, _ := ev["name"].(string); name == "fault:error:allreduce" {
			if pid, _ := ev["pid"].(float64); pid == 1 {
				sawFault = true
			}
		}
		if name, _ := ev["name"].(string); name == "process_name" {
			sawProcess = true
		}
	}
	if !sawFault {
		t.Fatal("merged trace does not show the faulting op on the faulting rank")
	}
	if !sawProcess {
		t.Fatal("merged trace missing process_name metadata")
	}

	sb, err := os.ReadFile(filepath.Join(dir, SkewFile))
	if err != nil {
		t.Fatal(err)
	}
	var skew SkewSummary
	if err := json.Unmarshal(sb, &skew); err != nil {
		t.Fatal(err)
	}
	if skew.Steps != 5 || skew.StragglerSteps[1] != 5 {
		t.Fatalf("skew summary wrong: %+v", skew)
	}

	// Non-root write is a no-op.
	other := NewAggregator(r, 1, 4)
	dir2 := t.TempDir()
	if err := other.WriteArtifacts(dir2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir2, TraceFile)); !os.IsNotExist(err) {
		t.Fatal("non-root rank wrote trace artifact")
	}
}

func TestOpAndFaultNames(t *testing.T) {
	if telemetry.OpName(telemetry.OpAllreduce) != "allreduce" || telemetry.OpName(999) != "?" || telemetry.OpName(-1) != "?" {
		t.Fatal("OpName mapping broken")
	}
	if telemetry.OpCode("allgather") != telemetry.OpAllgather || telemetry.OpCode("nope") != 0 {
		t.Fatal("OpCode mapping broken")
	}
	if telemetry.FaultName(telemetry.FaultPeerDead) != "peer_dead" || telemetry.FaultName(42) != "?" {
		t.Fatal("FaultName mapping broken")
	}
}
