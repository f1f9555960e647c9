package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// TestEventsStopsAtUnpublishedSlot pins that a window never skips a slot a
// writer has claimed but not yet published: the window ends before it, and
// the next window, cut once the slot is published, starts with it.
func TestEventsStopsAtUnpublishedSlot(t *testing.T) {
	reg := New()
	reg.Enable(true)
	for seq := int64(0); seq < 3; seq++ {
		reg.RecordOp(0, OpAllreduce, seq, 0, reg.Start())
	}
	claim := &reg.ring.Load().slots[1*stride]
	published := claim.Load()
	claim.Store(-1) // position 1: claimed, still being written

	evs, next := reg.Events(0)
	if len(evs) != 1 || evs[0].Seq != 0 || next != 1 {
		t.Fatalf("window over a parked slot = %+v, next %d; want only seq 0, next 1", evs, next)
	}
	claim.Store(published)
	evs, next = reg.Events(next)
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 || next != 3 {
		t.Fatalf("window after publishing = %+v, next %d; want seq 1, 2 and next 3", evs, next)
	}
}

func TestEventsEmptyWindowAllocatesNothing(t *testing.T) {
	reg := New()
	reg.Enable(true)
	reg.RecordOp(0, OpAllreduce, 1, 0, reg.Start())
	_, next := reg.Events(0)
	if allocs := testing.AllocsPerRun(100, func() { reg.Events(next) }); allocs != 0 {
		t.Fatalf("empty window allocates %.0f objects, want 0", allocs)
	}
}

// TestResetClearsEverything pins that Reset leaves nothing of a previous
// sweep behind: gauges included, so /metrics stops exporting a world size
// the new sweep never set.
func TestResetClearsEverything(t *testing.T) {
	reg := New()
	reg.Enable(true)
	reg.SetGauge("world_size", 4)
	reg.SetGeneration(2)
	reg.RecordOp(0, OpAllreduce, 1, 0, reg.Start())
	reg.Reset()
	if g := reg.Gauges(); g != nil {
		t.Fatalf("gauges survived Reset: %v", g)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "grace_world_size") {
		t.Fatalf("Reset registry still exports grace_world_size:\n%s", buf.String())
	}
	if evs, next := reg.Events(0); len(evs) != 0 || next != 0 {
		t.Fatalf("events survived Reset: %+v (next %d)", evs, next)
	}
	reg.RecordOp(0, OpBarrier, 2, 0, reg.Start())
	if evs, _ := reg.Events(0); len(evs) != 1 || evs[0].Gen != 0 || evs[0].Op != OpBarrier {
		t.Fatalf("post-Reset window = %+v, want one generation-0 barrier", evs)
	}
}
