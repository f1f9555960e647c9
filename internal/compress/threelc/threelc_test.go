package threelc

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/encode"
	"repro/internal/fxrand"
	"repro/internal/grace"
)

func TestDecodedValuesAreScaledTernary(t *testing.T) {
	c, _ := grace.New("threelc", grace.Options{})
	r := fxrand.New(1)
	g := make([]float32, 200)
	for i := range g {
		g[i] = r.NormFloat32()
	}
	info := grace.NewTensorInfo("t", []int{200})
	p, err := c.Compress(g, info)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decompress(p, info)
	if err != nil {
		t.Fatal(err)
	}
	var m float32
	for _, v := range out {
		if a := float32(math.Abs(float64(v))); a > m {
			m = a
		}
	}
	for i, v := range out {
		if v != 0 && v != m && v != -m {
			t.Fatalf("element %d = %v not in {0, ±%v}", i, v, m)
		}
	}
}

func TestSparsityMultiplierIncreasesZeros(t *testing.T) {
	r := fxrand.New(2)
	g := make([]float32, 2000)
	for i := range g {
		g[i] = r.NormFloat32()
	}
	info := grace.NewTensorInfo("t", []int{2000})
	zeros := func(s float64) int {
		c, err := grace.New("threelc", grace.Options{Threshold: s})
		if err != nil {
			t.Fatal(err)
		}
		p, _ := c.Compress(g, info)
		out, _ := c.Decompress(p, info)
		n := 0
		for _, v := range out {
			if v == 0 {
				n++
			}
		}
		return n
	}
	if z19, z10 := zeros(1.9), zeros(1.0); z19 <= z10 {
		t.Fatalf("s=1.9 zeros (%d) should exceed s=1.0 zeros (%d)", z19, z10)
	}
}

func TestErrorCompensationAccumulates(t *testing.T) {
	// A gradient too small to quantize on its own must eventually transmit
	// through the error-feedback memory.
	c, _ := grace.New("threelc", grace.Options{})
	mem := grace.NewMemory(1, 1)
	info := grace.NewTensorInfo("t", []int{2})
	g := []float32{1.0, 0.2} // second element below the rounding threshold
	sent := false
	for i := 0; i < 10 && !sent; i++ {
		_, out := efStep(t, c, mem, g, info)
		if out[1] != 0 {
			sent = true
		}
	}
	if !sent {
		t.Fatal("small element never transmitted despite error compensation")
	}
}

// TestFrameworkEFMatchesBuiltinMemory: grace.Memory(1, 1) around the codec
// sends the same bytes and keeps the same residual, bit for bit, as the
// error compensation 3LC used to carry inside its compressor.
func TestFrameworkEFMatchesBuiltinMemory(t *testing.T) {
	c, err := grace.New("threelc", grace.Options{Threshold: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	mem := grace.NewMemory(1, 1)
	info := grace.NewTensorInfo("t", []int{37})
	m := make([]float32, info.Size())
	r := fxrand.New(3)
	for step := 0; step < 20; step++ {
		g := make([]float32, info.Size())
		for i := range g {
			g[i] = r.NormFloat32()
		}
		want := builtinStep(t, c, m, g, info)
		got, _ := efStep(t, c, mem, g, info)
		if !bytes.Equal(got.Bytes, want) {
			t.Fatalf("step %d: payload differs from the built-in loop's", step)
		}
		for i, v := range mem.State()["t"] {
			if math.Float32bits(v) != math.Float32bits(m[i]) {
				t.Fatalf("step %d: residual[%d] = %v, built-in loop %v", step, i, v, m[i])
			}
		}
	}
}

// builtinStep is the deleted built-in compensation loop, kept as the oracle:
// x = g + m, quantize x, then m ← x − Q⁻¹(Q(x)) from the payload's M, as
// m = x + M, x − M or x for the digits −1, +1 and 0. It returns the payload.
func builtinStep(t *testing.T, c grace.Compressor, m, g []float32, info grace.TensorInfo) []byte {
	t.Helper()
	x := make([]float32, len(g))
	for i := range x {
		x[i] = g[i] + m[i]
	}
	p, err := c.Compress(x, info)
	if err != nil {
		t.Fatal(err)
	}
	M := math.Float32frombits(binary.LittleEndian.Uint32(p.Bytes))
	for i, v := range x {
		m[i] = v
		if M > 0 {
			switch q := math.Round(float64(v / M)); {
			case q <= -1:
				m[i] = v + M
			case q >= 1:
				m[i] = v - M
			}
		}
	}
	return p.Bytes
}

// efStep runs one framework error-feedback step (Eq. 4, β = γ = 1): compress
// g + m, decode locally and keep the residual in mem.
func efStep(t *testing.T, c grace.Compressor, mem *grace.Memory, g []float32, info grace.TensorInfo) (*grace.Payload, []float32) {
	t.Helper()
	x := mem.Compensate(info.Name, g)
	p, err := c.Compress(x, info)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decompress(p, info)
	if err != nil {
		t.Fatal(err)
	}
	mem.Update(info.Name, x, out)
	return p, out
}

func TestRejectsBadMultiplier(t *testing.T) {
	if _, err := grace.New("threelc", grace.Options{Threshold: 2.5}); err == nil {
		t.Fatal("expected error for s >= 2")
	}
	if _, err := grace.New("threelc", grace.Options{Threshold: 0.5}); err == nil {
		t.Fatal("expected error for s < 1")
	}
}

// TestDecompressRejectsWrongGroupCount pins two payloads that crashed the
// decoding process while the packed-group count came off the wire unchecked:
// 34 bytes claiming 1.6·10¹² groups, which the ZRLE stage preallocated (a
// fatal out-of-memory, not a panic a caller could recover), and a claim of
// one group more than ⌈d/5⌉, whose last group had a negative digit count.
func TestDecompressRejectsWrongGroupCount(t *testing.T) {
	info := grace.NewTensorInfo("t", []int{37})
	payload := func(groups uint64, body []byte) []byte {
		w := encode.NewWriter(16 + len(body))
		w.F32(1)
		w.Uvarint(groups)
		w.Raw(body)
		return w.Bytes()
	}
	c, _ := grace.New("threelc", grace.Options{})
	for name, p := range map[string][]byte{
		"huge claim":         payload(1_600_000_000_000, bytes.Repeat([]byte{1}, 24)),
		"one group too many": payload(9, bytes.Repeat([]byte{1}, 9)),
	} {
		if _, err := c.Decompress(&grace.Payload{Bytes: p}, info); err == nil {
			t.Errorf("%s (%d bytes): decoded without error", name, len(p))
		}
	}
}

func TestPartialGroupRoundTrip(t *testing.T) {
	// Lengths not divisible by 5 exercise the final partial base-3 group.
	for _, d := range []int{1, 4, 5, 6, 9, 11} {
		c, _ := grace.New("threelc", grace.Options{})
		g := make([]float32, d)
		for i := range g {
			g[i] = float32(i%3) - 1
		}
		info := grace.NewTensorInfo("t", []int{d})
		p, err := c.Compress(g, info)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		out, err := c.Decompress(p, info)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if len(out) != d {
			t.Fatalf("d=%d: decoded %d elements", d, len(out))
		}
	}
}
