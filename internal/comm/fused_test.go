package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestFusedRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{},
		{nil},
		{[]byte{}},
		{[]byte("a")},
		{[]byte("alpha"), []byte("b"), nil, []byte("gamma")},
		{nil, nil, nil},
		{bytes.Repeat([]byte{0xAB}, 1<<12), []byte{1}},
	}
	for ci, parts := range cases {
		frame := AppendFused(nil, parts)
		if len(frame) != FusedSize(parts) {
			t.Fatalf("case %d: frame is %d bytes, FusedSize says %d", ci, len(frame), FusedSize(parts))
		}
		got := make([][]byte, len(parts))
		if err := SplitFused(frame, got); err != nil {
			t.Fatalf("case %d: split: %v", ci, err)
		}
		for i := range parts {
			if !bytes.Equal(got[i], parts[i]) {
				t.Fatalf("case %d part %d: %q != %q", ci, i, got[i], parts[i])
			}
		}
	}
}

// TestFusedOnePartIsBarePayload pins the bucket-of-one rule: a one-part frame
// has no header, is the part itself when nothing precedes it (so an unfused
// exchange neither copies nor grows its payload), and splits back to the
// whole input whatever the bytes are.
func TestFusedOnePartIsBarePayload(t *testing.T) {
	if got := FusedOverhead(1); got != 0 {
		t.Fatalf("FusedOverhead(1) = %d, want 0", got)
	}
	if got := FusedOverhead(2); got != 12 {
		t.Fatalf("FusedOverhead(2) = %d, want 12", got)
	}
	// Bytes that would be a malformed multi-part frame are a fine payload.
	pay := binary.LittleEndian.AppendUint32(nil, 1<<30)
	frame := AppendFused(nil, [][]byte{pay})
	if len(frame) != len(pay) || &frame[0] != &pay[0] {
		t.Fatalf("one-part frame is not the payload itself: %d bytes vs %d", len(frame), len(pay))
	}
	if frame := AppendFused(nil, [][]byte{nil}); frame != nil {
		t.Fatalf("empty one-part frame is %v, want nil", frame)
	}
	if got := AppendFused([]byte("head"), [][]byte{pay}); !bytes.Equal(got, append([]byte("head"), pay...)) {
		t.Fatalf("one-part frame appended to a prefix: %q", got)
	}
	var into [1][]byte
	if err := SplitFused(pay, into[:]); err != nil || len(into[0]) != len(pay) || &into[0][0] != &pay[0] {
		t.Fatalf("one-part split: err %v, part %v", err, into[0])
	}
}

func TestFusedAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 1<<10)
	parts := [][]byte{[]byte("one"), []byte("two")}
	out := AppendFused(buf, parts)
	if &out[0] != &buf[:1][0] {
		t.Fatalf("AppendFused reallocated despite sufficient capacity")
	}
}

// TestSplitFusedIntoCallerSlice: the split writes into the slice it is given
// and allocates nothing, so the engine can reuse one scratch across buckets.
func TestSplitFusedIntoCallerSlice(t *testing.T) {
	frame := AppendFused(nil, [][]byte{[]byte("abc"), nil, []byte("de")})
	into := make([][]byte, 3)
	if n := testing.AllocsPerRun(100, func() {
		if err := SplitFused(frame, into); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SplitFused allocates %.0f objects per call", n)
	}
	if string(into[0]) != "abc" || len(into[1]) != 0 || string(into[2]) != "de" {
		t.Fatalf("parts %q", into)
	}
	// Parts are capped: appending to one cannot scribble on its neighbour.
	if cap(into[0]) != 3 {
		t.Fatalf("part 0 has capacity %d, want 3", cap(into[0]))
	}
}

func TestSplitFusedRejects(t *testing.T) {
	good := AppendFused(nil, [][]byte{[]byte("abc"), []byte("de")})
	cases := map[string][]byte{
		"empty":         {},
		"short header":  {1, 0, 0},
		"hostile count": binary.LittleEndian.AppendUint32(nil, 1<<30),
		"truncated len table": binary.LittleEndian.AppendUint32(
			binary.LittleEndian.AppendUint32(nil, 2), 1),
		"payload short": good[:len(good)-1],
		"trailing byte": append(append([]byte(nil), good...), 0),
		"len overflow": func() []byte {
			b := binary.LittleEndian.AppendUint32(nil, 2)
			b = binary.LittleEndian.AppendUint32(b, 1<<32-4)
			b = binary.LittleEndian.AppendUint32(b, 8)
			return append(b, 0, 0, 0, 0)
		}(),
	}
	for name, b := range cases {
		if err := SplitFused(b, make([][]byte, 2)); !errors.Is(err, ErrBadFusedFrame) {
			t.Errorf("%s: got %v, want ErrBadFusedFrame", name, err)
		}
	}
	for _, want := range []int{0, 3} {
		if err := SplitFused(good, make([][]byte, want)); !errors.Is(err, ErrBadFusedFrame) {
			t.Errorf("count mismatch (want %d): got %v, want ErrBadFusedFrame", want, err)
		}
	}
}

// FuzzSplitFused drives the fused-frame decoder with arbitrary bytes and an
// arbitrary expected part count: it must either fill parts that exactly tile
// the body or return a clean error wrapping ErrBadFusedFrame — never panic.
// A count of one must always succeed with the input itself.
func FuzzSplitFused(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Add(AppendFused(nil, nil), uint8(0))
	f.Add(AppendFused(nil, [][]byte{[]byte("seed"), nil, {0xFF}}), uint8(3))
	f.Add(AppendFused(nil, [][]byte{[]byte("bare")}), uint8(1))
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<31), uint8(2))
	f.Add([]byte{2, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, count uint8) {
		parts := make([][]byte, count)
		err := SplitFused(data, parts)
		if err != nil {
			if !errors.Is(err, ErrBadFusedFrame) {
				t.Fatalf("non-sentinel error: %v", err)
			}
			if count == 1 {
				t.Fatalf("a one-part frame is any payload, yet: %v", err)
			}
			return
		}
		// Valid parse: re-encoding must reproduce the input bit for bit.
		if re := AppendFused(nil, parts); !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch: %d vs %d bytes", len(re), len(data))
		}
	})
}
