package cbase

import (
	"reflect"
	"testing"

	"repro/internal/fxrand"
	"repro/internal/grace"
)

// TestStateRoundTrip: a snapshot is a deep copy in both directions, restores
// the stream and every slot, and a holder with slots reports them while
// empty.
func TestStateRoundTrip(t *testing.T) {
	s := NewState(fxrand.New(5), "u", "v")
	if st := s.CodecState(); st.RNG == nil || len(st.Tensors) != 2 || len(st.Tensors["u"]) != 0 {
		t.Fatalf("fresh holder reports %+v, want a stream and two empty slots", st)
	}
	u, fresh := s.Vec("u", "a", 3)
	if !fresh || !reflect.DeepEqual(u, []float32{0, 0, 0}) {
		t.Fatalf("first Vec = %v (fresh %v), want three zeros", u, fresh)
	}
	u[1] = 7
	if again, fresh := s.Vec("u", "a", 3); fresh || again[1] != 7 {
		t.Fatalf("second Vec = %v (fresh %v), want the same vector", again, fresh)
	}
	s.RNG.Uint64()
	snap := s.CodecState()
	u[1] = 8 // the snapshot must not alias the live vector
	draw := s.RNG.Uint64()

	r := NewState(fxrand.New(99), "u", "v")
	r.Vec("v", "stale", 2)
	if err := r.LoadCodecState(snap); err != nil {
		t.Fatal(err)
	}
	snap.Tensors["u"]["a"][1] = 9 // nor the loaded state the snapshot
	if got, _ := r.Vec("u", "a", 3); got[1] != 7 {
		t.Fatalf("restored u[a] = %v, want [0 7 0]", got)
	}
	if _, fresh := r.Vec("v", "stale", 2); !fresh {
		t.Fatal("a vector the snapshot lacks survived the load")
	}
	if got := r.RNG.Uint64(); got != draw {
		t.Fatalf("restored stream drew %x, want %x", got, draw)
	}
}

// TestStateLoadNeedsStream: a holder with a stream refuses a snapshot
// without one; a deterministic holder ignores the stream field.
func TestStateLoadNeedsStream(t *testing.T) {
	s := NewState(fxrand.New(1))
	if err := s.LoadCodecState(grace.CodecState{}); err == nil {
		t.Fatal("loaded a snapshot without a random stream")
	}
	if st := s.CodecState(); st.Tensors != nil {
		t.Fatalf("stream-only holder reports vector slots %v", st.Tensors)
	}
	d := NewState(nil, "m")
	if err := d.LoadCodecState(grace.CodecState{RNG: &fxrand.State{}}); err != nil {
		t.Fatal(err)
	}
	if d.CodecState().RNG != nil {
		t.Fatal("deterministic holder reports a stream")
	}
}
