// Package cbase holds helpers shared by the compressor implementations: the
// sparse (indices, values) wire format the paper's sparsify/desparsify API
// describes, and top-k selection by absolute value.
package cbase

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/encode"
)

// EncodeSparse serializes selected (index, value) pairs:
// [index block (delta varint)] [values, 4 bytes each]. Pairs are sorted by
// index; idx and vals are mutated (sorted) in place.
func EncodeSparse(idx []int, vals []float32) []byte {
	if len(idx) != len(vals) {
		panic(fmt.Sprintf("cbase: %d indices vs %d values", len(idx), len(vals)))
	}
	encode.SortByIndex(idx, vals)
	idxBlock := encode.EncodeIndices(idx)
	w := encode.NewWriter(len(idxBlock) + 4*len(vals) + 8)
	w.BytesSlice(idxBlock)
	for _, v := range vals {
		w.F32(v)
	}
	return w.Bytes()
}

// DecodeSparse reconstructs a dense vector of the given size from
// EncodeSparse output, filling unselected positions with zero (the paper's
// desparsify).
func DecodeSparse(buf []byte, size int) ([]float32, error) {
	out := make([]float32, size)
	if err := DecodeSparseInto(buf, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeSparseInto is the allocation-free form of DecodeSparse: it zeroes
// dst and scatters the decoded (index, value) pairs into it. len(dst) is the
// dense size.
func DecodeSparseInto(buf []byte, dst []float32) error {
	r := encode.NewReader(buf)
	idxBlock := r.BytesSlice()
	if r.Err() != nil {
		return r.Err()
	}
	idx, err := encode.DecodeIndices(idxBlock)
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, i := range idx {
		if i < 0 || i >= len(dst) {
			return fmt.Errorf("cbase: sparse index %d out of size %d", i, len(dst))
		}
		dst[i] = r.F32()
	}
	return r.Err()
}

// topkScratch recycles the len(g)-sized index permutation TopK selects in
// (*[]int); only the k winners are copied out.
var topkScratch = sync.Pool{New: func() any { return new([]int) }}

// TopK returns the indices of the k elements of g with the largest absolute
// values (k clamped to [1, len(g)] for non-empty g), in unspecified order.
// Selection is O(d) expected via quickselect.
func TopK(g []float32, k int) []int {
	d := len(g)
	if d == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > d {
		k = d
	}
	sp := topkScratch.Get().(*[]int)
	if cap(*sp) < d {
		*sp = make([]int, d)
	}
	idx := (*sp)[:d]
	for i := range idx {
		idx[i] = i
	}
	quickSelectAbs(g, idx, k)
	out := append([]int(nil), idx[:k]...)
	topkScratch.Put(sp)
	return out
}

// quickSelectAbs partially sorts idx so its first k entries reference the
// largest |g| values. Deterministic median-of-three pivoting keeps runs
// reproducible.
func quickSelectAbs(g []float32, idx []int, k int) {
	lo, hi := 0, len(idx)-1
	for lo < hi {
		p := partitionAbs(g, idx, lo, hi)
		switch {
		case p == k-1:
			return
		case p < k-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

func partitionAbs(g []float32, idx []int, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median-of-three on |g|, descending.
	if abs(g[idx[mid]]) > abs(g[idx[lo]]) {
		idx[lo], idx[mid] = idx[mid], idx[lo]
	}
	if abs(g[idx[hi]]) > abs(g[idx[lo]]) {
		idx[lo], idx[hi] = idx[hi], idx[lo]
	}
	if abs(g[idx[mid]]) > abs(g[idx[hi]]) {
		idx[mid], idx[hi] = idx[hi], idx[mid]
	}
	pivot := abs(g[idx[hi]])
	i := lo
	for j := lo; j < hi; j++ {
		if abs(g[idx[j]]) > pivot {
			idx[i], idx[j] = idx[j], idx[i]
			i++
		}
	}
	idx[i], idx[hi] = idx[hi], idx[i]
	return i
}

func abs(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// QuantileAbsThreshold estimates the |g| threshold above which roughly
// ratio·len(g) elements fall, using a sorted sample of at most sampleCap
// elements (DGC's sampling-based threshold estimation [16], [49]).
func QuantileAbsThreshold(g []float32, ratio float64, sampleCap int, stride int) float32 {
	if len(g) == 0 || ratio >= 1 {
		return 0
	}
	if stride < 1 {
		stride = 1
	}
	sample := make([]float32, 0, sampleCap)
	for i := 0; i < len(g) && len(sample) < sampleCap; i += stride {
		sample = append(sample, abs(g[i]))
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	pos := int(float64(len(sample)) * (1 - ratio))
	if pos >= len(sample) {
		pos = len(sample) - 1
	}
	if pos < 0 {
		pos = 0
	}
	return sample[pos]
}

// KFor returns the selection count for a sparsification ratio over d
// elements, never below 1.
func KFor(ratio float64, d int) int {
	k := int(ratio * float64(d))
	if k < 1 {
		k = 1
	}
	if k > d {
		k = d
	}
	return k
}
