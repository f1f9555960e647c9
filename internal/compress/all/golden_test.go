package all_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/comm"
	_ "repro/internal/compress/all"
	"repro/internal/fxrand"
	"repro/internal/grace"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.json")

// goldenEntry freezes one (method, input) pair: the exact wire payload the
// compressor emitted and the exact vector it decoded back. Payload and Output
// are little-endian bytes (float32 for dense payloads and outputs), so any
// drift — a codec tweak, an RNG change, a platform difference — shows up as a
// byte-level diff against the committed file.
type goldenEntry struct {
	Method    string `json:"method"`
	Input     string `json:"input"`
	Strategy  string `json:"strategy"`
	WireBytes int    `json:"wire_bytes"`
	Payload   []byte `json:"payload,omitempty"`
	Output    []byte `json:"output"`
}

// goldenInput is one fixed, seeded gradient tensor.
type goldenInput struct {
	name string
	info grace.TensorInfo
	g    []float32
}

func goldenInputs() []goldenInput {
	mk := func(name string, shape []int, seed uint64) goldenInput {
		info := grace.NewTensorInfo(name, shape)
		r := fxrand.New(seed)
		g := make([]float32, info.Size())
		for i := range g {
			g[i] = r.NormFloat32() * 0.1
		}
		return goldenInput{name: name, info: info, g: g}
	}
	return []goldenInput{
		mk("mat8x12", []int{8, 12}, 42),
		mk("vec23", []int{23}, 43),
	}
}

// goldenOptions is the fixed knob set a method is constructed with; each
// method reads only the knobs it understands, so one carrier covers nearly
// all 22 — the exceptions reinterpret a shared knob and get an override
// (3LC's Threshold is a sparsity multiplier in [1,2), not a cutoff).
func goldenOptions(method string) grace.Options {
	o := grace.Options{Ratio: 0.25, Levels: 8, Rank: 2, Threshold: 0.05, Momentum: 0.9, Seed: 123}
	if method == "threelc" {
		o.Threshold = 1.5
	}
	return o
}

func f32LE(x []float32) []byte {
	out := make([]byte, len(x)*4)
	for i, v := range x {
		bits := math.Float32bits(v)
		out[i*4] = byte(bits)
		out[i*4+1] = byte(bits >> 8)
		out[i*4+2] = byte(bits >> 16)
		out[i*4+3] = byte(bits >> 24)
	}
	return out
}

// computeGolden runs one method over one input with a fresh compressor.
// Allgather/Allreduce methods freeze (payload, decoded); Custom methods
// (powersgd) freeze the single-worker CommunicateAggregate result.
func computeGolden(method string, in goldenInput) (goldenEntry, error) {
	c, err := grace.New(method, goldenOptions(method))
	if err != nil {
		return goldenEntry{}, fmt.Errorf("New(%q): %w", method, err)
	}
	e := goldenEntry{Method: method, Input: in.name, Strategy: c.Strategy().String()}

	if c.Strategy() == grace.Custom {
		cc, ok := c.(grace.CustomComm)
		if !ok {
			return goldenEntry{}, fmt.Errorf("%s: Custom strategy without CustomComm", method)
		}
		agg, sent, err := cc.CommunicateAggregate(in.g, in.info, comm.Serial{})
		if err != nil {
			return goldenEntry{}, fmt.Errorf("%s custom comm: %w", method, err)
		}
		e.WireBytes = sent
		e.Output = f32LE(agg)
		return e, nil
	}

	pay, err := c.Compress(in.g, in.info)
	if err != nil {
		return goldenEntry{}, fmt.Errorf("%s compress: %w", method, err)
	}
	e.WireBytes = pay.WireBytes()
	if pay.Dense != nil {
		e.Payload = f32LE(pay.Dense)
	} else {
		e.Payload = append([]byte(nil), pay.Bytes...)
	}
	dec, err := c.Decompress(pay, in.info)
	if err != nil {
		return goldenEntry{}, fmt.Errorf("%s decompress: %w", method, err)
	}
	if len(dec) != in.info.Size() {
		return goldenEntry{}, fmt.Errorf("%s decoded %d elements, want %d", method, len(dec), in.info.Size())
	}
	e.Output = f32LE(dec)
	return e, nil
}

func leF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		bits := uint32(b[i*4]) | uint32(b[i*4+1])<<8 | uint32(b[i*4+2])<<16 | uint32(b[i*4+3])<<24
		out[i] = math.Float32frombits(bits)
	}
	return out
}

// computeFusedGolden freezes the fused-frame view of a method: one compressor
// instance compresses every golden input in step order (the Engine reuses one
// codec across a step's tensors, so cross-tensor codec state is pinned too),
// the payloads are packed into a single comm.AppendFused frame, and each
// tensor is decoded from its zero-copy SplitFused part. Payload holds the
// whole fused frame and Output the per-tensor decodes concatenated in input
// order. Custom-strategy methods never fuse and report ok=false.
func computeFusedGolden(method string, ins []goldenInput) (goldenEntry, bool, error) {
	c, err := grace.New(method, goldenOptions(method))
	if err != nil {
		return goldenEntry{}, false, fmt.Errorf("New(%q): %w", method, err)
	}
	if c.Strategy() == grace.Custom {
		return goldenEntry{}, false, nil
	}
	e := goldenEntry{Method: method, Input: "fused", Strategy: c.Strategy().String()}
	parts := make([][]byte, len(ins))
	dense := c.Strategy() == grace.Allreduce
	for i, in := range ins {
		pay, err := c.Compress(in.g, in.info)
		if err != nil {
			return goldenEntry{}, false, fmt.Errorf("%s fused compress %s: %w", method, in.name, err)
		}
		if pay.Dense != nil {
			parts[i] = f32LE(pay.Dense)
		} else {
			parts[i] = append([]byte(nil), pay.Bytes...)
		}
		e.WireBytes += pay.WireBytes()
	}
	frame := comm.AppendFused(nil, parts)
	e.WireBytes += comm.FusedOverhead(len(parts))
	e.Payload = frame
	split := make([][]byte, len(ins))
	if err := comm.SplitFused(frame, split); err != nil {
		return goldenEntry{}, false, fmt.Errorf("%s fused split: %w", method, err)
	}
	for i, in := range ins {
		pay := &grace.Payload{}
		if dense {
			pay.Dense = leF32(split[i])
		} else {
			pay.Bytes = split[i]
		}
		dec, err := c.Decompress(pay, in.info)
		if err != nil {
			return goldenEntry{}, false, fmt.Errorf("%s fused decompress %s: %w", method, in.name, err)
		}
		if len(dec) != in.info.Size() {
			return goldenEntry{}, false, fmt.Errorf("%s fused decoded %d elements for %s, want %d",
				method, len(dec), in.name, in.info.Size())
		}
		e.Output = append(e.Output, f32LE(dec)...)
	}
	return e, true, nil
}

const goldenPath = "testdata/golden.json"

// TestGoldenVectors pins every registered compressor's exact wire bytes and
// decoded output on fixed seeded inputs against the committed golden file.
// Regenerate intentionally with:
//
//	go test ./internal/compress/all -run TestGoldenVectors -update
func TestGoldenVectors(t *testing.T) {
	inputs := goldenInputs()
	var got []goldenEntry
	for _, method := range wantMethods {
		for _, in := range inputs {
			e, err := computeGolden(method, in)
			if err != nil {
				t.Fatal(err)
			}
			// A golden vector is only meaningful if the codec is run-to-run
			// deterministic; verify with a second fresh instance before
			// pinning anything.
			e2, err := computeGolden(method, in)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(e.Payload, e2.Payload) || !bytes.Equal(e.Output, e2.Output) || e.WireBytes != e2.WireBytes {
				t.Fatalf("%s/%s: two fresh runs disagree — codec is not deterministic under a fixed seed", method, in.name)
			}
			got = append(got, e)
		}
		fe, ok, err := computeFusedGolden(method, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			fe2, _, err := computeFusedGolden(method, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fe.Payload, fe2.Payload) || !bytes.Equal(fe.Output, fe2.Output) {
				t.Fatalf("%s/fused: two fresh runs disagree — codec is not deterministic under a fixed seed", method)
			}
			got = append(got, fe)
		}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), goldenPath)
		return
	}

	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	index := make(map[string]goldenEntry, len(want))
	for _, e := range want {
		index[e.Method+"/"+e.Input] = e
	}
	seen := make(map[string]bool, len(got))
	for _, g := range got {
		key := g.Method + "/" + g.Input
		seen[key] = true
		w, ok := index[key]
		if !ok {
			t.Errorf("%s: no golden entry (regenerate with -update)", key)
			continue
		}
		if g.Strategy != w.Strategy {
			t.Errorf("%s: strategy %s, golden says %s", key, g.Strategy, w.Strategy)
		}
		if g.WireBytes != w.WireBytes {
			t.Errorf("%s: wire bytes %d, golden says %d", key, g.WireBytes, w.WireBytes)
		}
		if !bytes.Equal(g.Payload, w.Payload) {
			t.Errorf("%s: payload drifted from golden (%d vs %d bytes)", key, len(g.Payload), len(w.Payload))
		}
		if !bytes.Equal(g.Output, w.Output) {
			t.Errorf("%s: decoded output drifted from golden", key)
		}
	}
	for key := range index {
		if !seen[key] {
			t.Errorf("stale golden entry %s (regenerate with -update)", key)
		}
	}
}
