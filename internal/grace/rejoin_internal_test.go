package grace

import (
	"bytes"
	"testing"
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
		name  string
		lists [][]int64
		step  int64
		donor int
	}{
		{"all-aligned", [][]int64{{3, 6}, {3, 6}, {3, 6}}, 6, 0},
		{"laggard", [][]int64{{3, 6}, {3}, {3, 6}}, 3, 0},
		{"stateless-rank", [][]int64{{3, 6}, nil, {3, 6}}, 6, 0},
		{"stateless-donor-shift", [][]int64{nil, {3, 6}, {3, 6}}, 6, 1},
		{"disjoint", [][]int64{{3}, {6}, {3, 6}}, -1, 0},
		{"nobody", [][]int64{nil, nil, nil}, -1, -1},
		{"duplicates", [][]int64{{3, 3, 6}, {6}, {6}}, 6, 0},
	}
	for _, tc := range cases {
		step, donor := commonStep(tc.lists)
		if step != tc.step || donor != tc.donor {
			t.Errorf("%s: commonStep = (%d, %d), want (%d, %d)", tc.name, step, donor, tc.step, tc.donor)
		}
	}
}

func TestRejoinConfigValidation(t *testing.T) {
	rj := &RejoinConfig{}
	if err := rj.validate(); err == nil {
		t.Fatal("empty RejoinConfig passed validation")
	}
	if !bytes.Equal(encodeStepList(nil), nil) {
		t.Fatal("stateless rank must encode as the empty payload")
	}
}
