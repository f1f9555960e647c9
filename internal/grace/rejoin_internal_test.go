package grace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/comm"
)

func TestStepListCodec(t *testing.T) {
	cases := []struct {
		steps []int64
		text  string
	}{
		{nil, ""},
		{[]int64{3}, "3"},
		{[]int64{3, 6, 9}, "3,6,9"},
		// A duplicated step is well-formed on the wire; commonStep counts it
		// once (TestCommonStep "duplicates").
		{[]int64{3, 3, 6}, "3,3,6"},
	}
	for _, tc := range cases {
		b := encodeStepList(tc.steps)
		if string(b) != tc.text {
			t.Errorf("encode(%v) = %q, want %q", tc.steps, b, tc.text)
		}
		back, err := decodeStepList(b)
		if err != nil || len(back) != len(tc.steps) {
			t.Fatalf("decode(%q) = %v, %v", b, back, err)
		}
		for i := range back {
			if back[i] != tc.steps[i] {
				t.Errorf("round trip lost %v: got %v", tc.steps, back)
			}
		}
	}
	// Hostile peers: malformed text must error, never panic or mis-parse —
	// a negative step anywhere in the list, an empty element, overflow.
	for _, bad := range []string{",", "3,", ",3", "x", "-4", "3,-4", "-0x1", "9223372036854775808"} {
		if _, err := decodeStepList([]byte(bad)); err == nil {
			t.Errorf("decodeStepList(%q) accepted malformed input", bad)
		}
	}
}

func TestCommonStep(t *testing.T) {
	cases := []struct {
		name             string
		lists            [][]int64
		step             int64
		donor, stateless int
	}{
		{"all-aligned", [][]int64{{3, 6}, {3, 6}, {3, 6}}, 6, 0, 0},
		{"laggard", [][]int64{{3, 6}, {3}, {3, 6}}, 3, 0, 0},
		{"stateless-rank", [][]int64{{3, 6}, nil, {3, 6}}, 6, 0, 1},
		{"stateless-donor-shift", [][]int64{nil, {3, 6}, {3, 6}}, 6, 1, 1},
		{"disjoint", [][]int64{{3}, {6}, {3, 6}}, -1, 0, 0},
		{"nobody", [][]int64{nil, nil, nil}, -1, -1, 3},
		{"duplicates", [][]int64{{3, 3, 6}, {6}, {6}}, 6, 0, 0},
	}
	for _, tc := range cases {
		step, donor, stateless := commonStep(tc.lists)
		if step != tc.step || donor != tc.donor || stateless != tc.stateless {
			t.Errorf("%s: commonStep = (%d, %d, %d), want (%d, %d, %d)", tc.name,
				step, donor, stateless, tc.step, tc.donor, tc.stateless)
		}
	}
}

// TestRejoinConfigValidation: a self-healing configuration without a Store is
// rejected before any collective, and a rank without checkpoints offers the
// empty step list.
func TestRejoinConfigValidation(t *testing.T) {
	cfg := healConfig(1)
	cfg.Checkpoint = &CheckpointConfig{Every: 3, Heal: true}
	if _, err := newWorker(cfg, 0, comm.Serial{}, cfg.Cluster()); err == nil || !strings.Contains(err.Error(), "needs a Store") {
		t.Fatalf("Heal without a Store: err = %v", err)
	}
	if !bytes.Equal(encodeStepList(nil), nil) {
		t.Fatal("stateless rank must encode as the empty payload")
	}
}
