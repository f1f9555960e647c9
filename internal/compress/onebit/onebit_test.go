package onebit

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/fxrand"
	"repro/internal/grace"
)

func TestDecodeMeansMatchParts(t *testing.T) {
	c, _ := grace.New("onebit", grace.Options{})
	g := []float32{2, 4, -1, -3, 6}
	info := grace.NewTensorInfo("t", []int{5})
	p, err := c.Compress(g, info)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decompress(p, info)
	if err != nil {
		t.Fatal(err)
	}
	// Non-negative part mean = (2+4+6)/3 = 4; negative part mean = -2.
	want := []float32{4, 4, -2, -2, 4}
	for i := range want {
		if math.Abs(float64(out[i]-want[i])) > 1e-6 {
			t.Fatalf("decode got %v want %v", out, want)
		}
	}
}

func TestThresholdShiftsSplit(t *testing.T) {
	c, err := grace.New("onebit", grace.Options{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := []float32{1, 2, 4, 5}
	info := grace.NewTensorInfo("t", []int{4})
	p, _ := c.Compress(g, info)
	out, _ := c.Decompress(p, info)
	// With τ=3, "low" part = {1,2} (mean 1.5), "high" part = {4,5} (mean 4.5).
	if math.Abs(float64(out[0]-1.5)) > 1e-6 || math.Abs(float64(out[2]-4.5)) > 1e-6 {
		t.Fatalf("thresholded decode wrong: %v", out)
	}
}

func TestMemoryIsPerTensor(t *testing.T) {
	c := mustNew(t)
	mem := grace.NewMemory(1, 1)
	infoA := grace.NewTensorInfo("a", []int{2})
	infoB := grace.NewTensorInfo("b", []int{2})
	// Build residual on tensor a.
	for i := 0; i < 5; i++ {
		efStep(t, c, mem, []float32{1, -1}, infoA)
	}
	// Tensor b must start with a clean memory: its first compression of a
	// symmetric input decodes to the exact part means.
	_, out := efStep(t, c, mem, []float32{1, -1}, infoB)
	if out[0] != 1 || out[1] != -1 {
		t.Fatalf("tensor b inherited memory: %v", out)
	}
}

func TestResidualStaysBounded(t *testing.T) {
	// Error feedback must keep the residual bounded for a constant gradient
	// (it contracts rather than accumulates).
	c := mustNew(t)
	mem := grace.NewMemory(1, 1)
	g := []float32{0.9, 0.5, -0.2, -0.8, 0.1}
	info := grace.NewTensorInfo("t", []int{5})
	for i := 0; i < 200; i++ {
		efStep(t, c, mem, g, info)
	}
	if norm := mem.Norm2("t"); norm > 5 {
		t.Fatalf("residual norm %v grew unboundedly", norm)
	}
}

// TestFrameworkEFMatchesBuiltinMemory: grace.Memory(1, 1) around the codec
// sends the same bytes and keeps the same residual, bit for bit, as the
// memory loop 1-bit SGD used to carry inside its compressor.
func TestFrameworkEFMatchesBuiltinMemory(t *testing.T) {
	c := mustNew(t)
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

// builtinStep is the deleted built-in memory loop, kept as the oracle:
// x = g + m, quantize x, then m ← x − Q⁻¹(Q(x)) from the payload's means
// and bits. It returns the payload.
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
	meanLo := math.Float32frombits(binary.LittleEndian.Uint32(p.Bytes))
	meanHi := math.Float32frombits(binary.LittleEndian.Uint32(p.Bytes[4:]))
	for i, v := range x {
		if p.Bytes[8+i/8]&(1<<(uint(i)%8)) != 0 {
			m[i] = v - meanHi
		} else {
			m[i] = v - meanLo
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

func mustNew(t *testing.T) grace.Compressor {
	t.Helper()
	c, err := grace.New("onebit", grace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}
