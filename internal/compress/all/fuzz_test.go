package all_test

import (
	"slices"
	"testing"

	_ "repro/internal/compress/all"
	"repro/internal/grace"
)

// fuzzShapes are the tensor geometries every decoder is fuzzed at: a vector
// whose length no packing width divides, a matrix (the low-rank and
// row-wise formats take their other branch), and a scalar.
var fuzzShapes = []grace.TensorInfo{
	grace.NewTensorInfo("vec", []int{37}),
	grace.NewTensorInfo("mat", []int{16, 8}),
	grace.NewTensorInfo("scalar", []int{1}),
}

// FuzzDecompressAll feeds every registered Allgather method's decoder —
// everything that reads bytes off the wire — arbitrary bytes at each of
// fuzzShapes: hostile input must yield an error or exactly info.Size()
// elements, never a panic. The seed corpus is each method's own payload per
// shape plus truncations of it, so the plain test run already walks every
// decoder's short-input paths.
func FuzzDecompressAll(f *testing.F) {
	var methods []string
	for _, name := range grace.Names() {
		c, err := grace.New(name, grace.Options{Seed: 1})
		if err != nil {
			f.Fatalf("New(%q): %v", name, err)
		}
		if c.Strategy() != grace.Allgather {
			continue
		}
		for si, info := range fuzzShapes {
			p, err := c.Compress(randomGrad(uint64(si)+1, info.Size()), info)
			if err != nil {
				f.Fatalf("%s compress %v: %v", name, info.Shape, err)
			}
			b := p.Bytes
			for _, n := range []int{len(b), max(len(b)-1, 0), len(b) / 2, 0} {
				f.Add(uint8(len(methods)), uint8(si), b[:n])
			}
		}
		methods = append(methods, name)
	}
	// A regression row: a topk payload that lists index 3 twice (index
	// block [2 4 0], values 1.5 and -7), which no encoder writes and the
	// sparse decoder once accepted.
	dup := []byte{3, 2, 4, 0, 0, 0, 0xc0, 0x3f, 0, 0, 0xe0, 0xc0}
	f.Add(uint8(slices.Index(methods, "topk")), uint8(0), dup)
	f.Fuzz(func(t *testing.T, mi, si uint8, data []byte) {
		name := methods[int(mi)%len(methods)]
		info := fuzzShapes[int(si)%len(fuzzShapes)]
		c, err := grace.New(name, grace.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.Decompress(&grace.Payload{Bytes: data}, info)
		if err == nil && len(dec) != info.Size() {
			t.Fatalf("%s %v: decoded %d elements, want %d", name, info.Shape, len(dec), info.Size())
		}
	})
}
