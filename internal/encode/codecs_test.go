package encode

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/fxrand"
)

// --- indices ---

func TestEncodeIndicesRoundTrip(t *testing.T) {
	idx := []int{5, 2, 100, 0, 7}
	got, err := DecodeIndices(EncodeIndices(idx))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 5, 7, 100}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestEncodeIndicesEmpty(t *testing.T) {
	got, err := DecodeIndices(EncodeIndices(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
}

func TestEncodeIndicesDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate index")
		}
	}()
	EncodeIndices([]int{1, 1})
}

func TestEncodeIndicesProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%200) + 1
		k := int(seed%uint64(n)) + 1
		idx := fxrand.New(seed).Sample(n*10, k)
		got, err := DecodeIndices(EncodeIndices(idx))
		if err != nil || len(got) != k {
			return false
		}
		sort.Ints(idx)
		for i := range idx {
			if got[i] != idx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeIndicesDenseIsCompact(t *testing.T) {
	// Dense consecutive indices should cost ~1 byte each.
	idx := make([]int, 1000)
	for i := range idx {
		idx[i] = i
	}
	if n := len(EncodeIndices(idx)); n > 1100 {
		t.Fatalf("dense index encoding too large: %d bytes for 1000 indices", n)
	}
}

func TestDecodeIndicesCorrupt(t *testing.T) {
	if _, err := DecodeIndices([]byte{0xff}); err == nil {
		t.Fatal("expected error on corrupt buffer")
	}
}

func TestSortByIndex(t *testing.T) {
	idx := []int{3, 1, 2}
	vals := []float32{30, 10, 20}
	SortByIndex(idx, vals)
	for i := 0; i < 3; i++ {
		if idx[i] != i+1 || vals[i] != float32((i+1)*10) {
			t.Fatalf("SortByIndex got %v %v", idx, vals)
		}
	}
}

// --- ZRLE ---

func TestZRLERoundTrip(t *testing.T) {
	src := []byte{1, 0, 0, 0, 2, 3, 0, 4, 0, 0}
	dec, err := ZRLEDecompress(ZRLECompress(src), len(src))
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatalf("ZRLE round trip: %v err=%v", dec, err)
	}
}

func TestZRLEAllZeros(t *testing.T) {
	src := make([]byte, 10000)
	comp := ZRLECompress(src)
	if len(comp) > 4 {
		t.Fatalf("all-zero compression too large: %d bytes", len(comp))
	}
	dec, err := ZRLEDecompress(comp, len(src))
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatal("all-zero round trip failed")
	}
}

func TestZRLENoZeros(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5}
	comp := ZRLECompress(src)
	if len(comp) != len(src) {
		t.Fatalf("no-zero stream should not grow: %d vs %d", len(comp), len(src))
	}
}

func TestZRLEProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw % 1000)
		r := fxrand.New(seed)
		src := make([]byte, n)
		for i := range src {
			if r.Bernoulli(0.7) {
				src[i] = 0
			} else {
				src[i] = byte(r.Intn(255) + 1)
			}
		}
		dec, err := ZRLEDecompress(ZRLECompress(src), n)
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestZRLECorruptLength(t *testing.T) {
	comp := ZRLECompress([]byte{0, 0, 0})
	if _, err := ZRLEDecompress(comp, 2); err == nil {
		t.Fatal("expected error when decoded length mismatches")
	}
	if _, err := ZRLEDecompress(comp, -1); err == nil {
		t.Fatal("expected error for a negative expected length")
	}
}

// --- quantile sketch ---

func TestSketchUniformQuantiles(t *testing.T) {
	s := NewQuantileSketch(0.01)
	r := fxrand.New(3)
	const n = 50000
	for i := 0; i < n; i++ {
		s.Insert(r.Float64())
	}
	if s.Count() != n {
		t.Fatalf("Count = %d", s.Count())
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		got := s.Query(q)
		if math.Abs(got-q) > 0.03 {
			t.Fatalf("quantile %v estimated as %v", q, got)
		}
	}
}

func TestSketchExtremes(t *testing.T) {
	s := NewQuantileSketch(0.05)
	for i := 1; i <= 100; i++ {
		s.Insert(float64(i))
	}
	if got := s.Query(0); got > 6 {
		t.Fatalf("min quantile %v", got)
	}
	if got := s.Query(1); got < 95 {
		t.Fatalf("max quantile %v", got)
	}
}

func TestSketchEmpty(t *testing.T) {
	s := NewQuantileSketch(0.1)
	if s.Query(0.5) != 0 {
		t.Fatal("empty sketch should return 0")
	}
}

func TestSketchQuantilesMonotone(t *testing.T) {
	s := NewQuantileSketch(0.02)
	r := fxrand.New(9)
	for i := 0; i < 5000; i++ {
		s.Insert(r.NormFloat64())
	}
	bs := s.Quantiles(16)
	if len(bs) != 17 {
		t.Fatalf("Quantiles length %d", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i] < bs[i-1] {
			t.Fatalf("boundaries not monotone: %v", bs)
		}
	}
}

func TestBucketOfAndMid(t *testing.T) {
	bs := []float64{0, 1, 2, 3} // 3 buckets
	if BucketOf(bs, -5) != 0 {
		t.Fatal("below-range value should land in bucket 0")
	}
	if BucketOf(bs, 0.5) != 0 || BucketOf(bs, 1.5) != 1 || BucketOf(bs, 2.5) != 2 {
		t.Fatal("interior bucketing wrong")
	}
	if BucketOf(bs, 99) != 2 {
		t.Fatal("above-range value should land in last bucket")
	}
	if BucketMid(bs, 1) != 1.5 {
		t.Fatal("BucketMid wrong")
	}
}

func TestSketchBadEpsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQuantileSketch(0)
}

// --- Huffman ---

func TestHuffmanRoundTripSkewed(t *testing.T) {
	r := fxrand.New(4)
	src := make([]byte, 10000)
	for i := range src {
		// Highly skewed: mostly zeros, as in quantized gradients.
		if r.Bernoulli(0.9) {
			src[i] = 0
		} else {
			src[i] = byte(r.Intn(4) + 1)
		}
	}
	comp := HuffmanEncode(src)
	if len(comp) > len(src)/2+300 {
		t.Fatalf("huffman did not compress skewed stream: %d -> %d", len(src), len(comp))
	}
	dec, err := HuffmanDecode(comp)
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatalf("huffman round trip failed: err=%v", err)
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	src := bytes.Repeat([]byte{42}, 1000)
	dec, err := HuffmanDecode(HuffmanEncode(src))
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatalf("single-symbol round trip failed: err=%v", err)
	}
}

func TestHuffmanEmpty(t *testing.T) {
	dec, err := HuffmanDecode(HuffmanEncode(nil))
	if err != nil || len(dec) != 0 {
		t.Fatalf("empty round trip: %v err=%v", dec, err)
	}
}

func TestHuffmanProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw % 2000)
		r := fxrand.New(seed)
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(r.Intn(8))
		}
		dec, err := HuffmanDecode(HuffmanEncode(src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHuffmanCorrupt(t *testing.T) {
	comp := HuffmanEncode([]byte{1, 2, 3, 1, 2, 3})
	if _, err := HuffmanDecode(comp[:len(comp)-1]); err == nil {
		t.Fatal("expected error on truncated stream")
	}
}

func BenchmarkPackBits2(b *testing.B) {
	syms := make([]uint32, 1<<18)
	b.SetBytes(int64(len(syms)) * 4)
	for i := 0; i < b.N; i++ {
		_ = PackBits(syms, 2)
	}
}

func BenchmarkHuffmanEncode(b *testing.B) {
	r := fxrand.New(1)
	src := make([]byte, 1<<16)
	for i := range src {
		src[i] = byte(r.Intn(4))
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = HuffmanEncode(src)
	}
}
