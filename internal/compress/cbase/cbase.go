// Package cbase holds helpers shared by the compressor implementations: the
// sparse (indices, values) wire format the paper's sparsify/desparsify API
// describes, top-k selection by absolute value, and State, the one holder of
// a codec's private state.
package cbase

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/encode"
)

// EncodeSparse serializes selected (index, value) pairs:
// [index block (delta varint), length-prefixed] [values, 4 bytes each]. Pairs
// go out sorted by index; idx and vals are sorted in place unless they
// already ascend. It panics on duplicate indices.
func EncodeSparse(idx []int, vals []float32) []byte {
	if len(idx) != len(vals) {
		panic(fmt.Sprintf("cbase: %d indices vs %d values", len(idx), len(vals)))
	}
	if !slices.IsSorted(idx) {
		encode.SortByIndex(idx, vals)
	}
	return encodeAscending(idx, func(n int) float32 { return vals[n] })
}

// EncodeTopK is EncodeSparse over the k elements of g that TopK selects. The
// selection comes out in ascending index order, the order the wire format
// wants, so it is written as it stands: no sort, no index or value list.
func EncodeTopK(g []float32, k int) []byte {
	if len(g) == 0 {
		return EncodeSparse(nil, nil)
	}
	win, sp := selectTopK(g, k)
	out := encodeAscending(win, func(n int) float32 { return g[win[n]] })
	selPool.Put(sp)
	return out
}

// encodeAscending writes EncodeSparse's format for strictly ascending idx in
// one exactly sized allocation; value(n) is the value paired with idx[n].
func encodeAscending[I encode.Index](idx []I, value func(n int) float32) []byte {
	block := encode.IndicesLen(idx)
	out := make([]byte, 0, binary.MaxVarintLen64+block+4*len(idx))
	out, bad := encode.AppendIndices(binary.AppendUvarint(out, uint64(block)), idx)
	if bad >= 0 {
		panic(fmt.Sprintf("cbase: duplicate sparse index %d", idx[bad]))
	}
	for n := range idx {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(value(n)))
	}
	return out
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

// selPool recycles selectTopK's scratch (*[]uint32).
var selPool = sync.Pool{New: func() any { return new([]uint32) }}

// TopK returns the indices of the k elements of g that come first in the
// total order "larger |g| first, lower index on ties", in ascending index
// order (k clamped to [1, len(g)] for non-empty g). ±0 tie with each other,
// subnormals rank by magnitude like any other value, ±Inf rank above every
// finite value and NaN ranks as magnitude 0. Selection is a radix select on
// the magnitude bits: O(d) for any input, constant and mostly-zero tensors
// included.
func TopK(g []float32, k int) []int {
	if len(g) == 0 {
		return nil
	}
	win, sp := selectTopK(g, k)
	out := make([]int, len(win))
	for j, i := range win {
		out[j] = int(i)
	}
	selPool.Put(sp)
	return out
}

// magKey maps v to a key that orders like |v|: the IEEE-754 bits with the
// sign shifted out, which leaves the exponent in the top byte. NaN maps to 0.
func magKey(v float32) uint32 {
	c := math.Float32bits(v) << 1
	if c > 0xff<<24 {
		return 0
	}
	return c
}

// selectTopK returns TopK's winners, ascending, in scratch the caller hands
// back with selPool.Put(sp). It clamps k to [1, len(g)]; g must be non-empty
// and shorter than 2^31.
//
// One pass over g histograms the exponents, which names the exponent e of the
// k-th magnitude; a second collects the indices of the elements at or above
// e. The rest touches only those: the keys of the ones at e are candidates, a
// radix select over the mantissa digits they differ in narrows them to the
// k-th key t, and the winners are the collected elements above t plus the
// first few equal to it. Each step is linear in what it is given, so the cost
// is O(len(g)) whatever the values. The filtering loops store unconditionally
// and advance conditionally (conditional moves): which elements qualify is
// nothing a branch predictor can learn.
func selectTopK(g []float32, k int) (win []uint32, sp *[]uint32) {
	k = min(max(k, 1), len(g))
	var hist [256]int32
	top := uint32(0)
	for _, v := range g {
		e := magKey(v) >> 24
		hist[e]++
		top = max(top, e)
	}
	e, need := top, int32(k)
	for ; hist[e] < need; e-- {
		need -= hist[e]
	}
	nsel, ncand := k-int(need-hist[e]), int(hist[e])

	sp = selPool.Get().(*[]uint32)
	if cap(*sp) < nsel+ncand+2 {
		*sp = make([]uint32, nsel+ncand+2)
	}
	sel, cand := (*sp)[:nsel+1], (*sp)[nsel+1:nsel+ncand+2]
	n := 0
	for i, v := range g {
		sel[n] = uint32(i)
		if magKey(v)>>24 >= e {
			n++
		}
	}
	sel = sel[:nsel]
	n = 0
	for _, i := range sel {
		c := magKey(g[i])
		cand[n] = c
		if c>>24 == e {
			n++
		}
	}
	cand = cand[:ncand]
	or, and := uint32(0), ^uint32(0)
	for _, c := range cand {
		or |= c
		and &= c
	}
	// Four mantissa bits a level, keep the digit bucket holding the need-th
	// largest; digits all candidates agree on (every one, for a constant or
	// mostly-zero tensor) cost nothing.
	for sh := 20; sh >= 0 && len(cand) > 1; sh -= 4 {
		if (or^and)>>sh&15 == 0 {
			continue
		}
		var cnt [16]int32
		for _, c := range cand {
			cnt[c>>sh&15]++
		}
		b := uint32(15)
		for ; cnt[b] < need; b-- {
			need -= cnt[b]
		}
		n = 0
		for _, c := range cand {
			cand[n] = c
			if c>>sh&15 == b {
				n++
			}
		}
		cand = cand[:n]
	}
	t := cand[0]
	n = 0
	for _, i := range sel {
		if n == k {
			break
		}
		c := magKey(g[i])
		sel[n] = i
		if c > t {
			n++
		}
		if c == t && need > 0 {
			need--
			n++
		}
	}
	return sel[:k], sp
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
	stride = max(stride, 1)
	sample := make([]float32, 0, sampleCap)
	for i := 0; i < len(g) && len(sample) < sampleCap; i += stride {
		sample = append(sample, abs(g[i]))
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	pos := max(min(int(float64(len(sample))*(1-ratio)), len(sample)-1), 0)
	return sample[pos]
}

// KFor returns the selection count for a sparsification ratio over d
// elements, never below 1.
func KFor(ratio float64, d int) int {
	return min(max(int(ratio*float64(d)), 1), d)
}
