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
	win, sc := selectTopK(g, k)
	out := encodeAscending(win, func(n int) float32 { return g[win[n]] })
	selPool.Put(sc)
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
// dst and scatters the decoded (index, value) pairs into it, parsing the
// index deltas and the values in one pass with no copy. len(dst) is the
// dense size. It rejects what no encoder writes: a count beyond the value
// bytes, a zero delta (a repeated index) and an index outside dst.
func DecodeSparseInto(buf []byte, dst []float32) error {
	block, n := binary.Uvarint(buf)
	if n <= 0 || block > uint64(len(buf)-n) {
		return fmt.Errorf("cbase: bad sparse index block length in %d bytes", len(buf))
	}
	idx, vals := buf[n:n+int(block)], buf[n+int(block):]
	count, n := binary.Uvarint(idx)
	if n <= 0 || count > uint64(len(vals)/4) {
		return fmt.Errorf("cbase: sparse count does not fit %d value bytes", len(vals))
	}
	idx = idx[n:]
	clear(dst)
	at := uint64(0) // one past the previous index
	for j := range int(count) {
		d, n := binary.Uvarint(idx)
		if n <= 0 || d == 0 || d > uint64(len(dst))-at {
			return fmt.Errorf("cbase: sparse entry %d: index delta malformed, zero or past size %d", j, len(dst))
		}
		idx, at = idx[n:], at+d
		dst[at-1] = math.Float32frombits(binary.LittleEndian.Uint32(vals[4*j:]))
	}
	return nil
}

// selScratch is selectTopK's reusable memory: the exact selection's indices
// and keys, and the sampled one's scan hits and values (first the sample).
type selScratch struct {
	sel, hits []uint32
	vals      []float32
}

var selPool = sync.Pool{New: func() any { return new(selScratch) }}

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
	win, sc := selectTopK(g, k)
	out := make([]int, len(win))
	for j, i := range win {
		out[j] = int(i)
	}
	selPool.Put(sc)
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

const (
	sampledMin = 32768 // from this length selectTopK tries sampled first
	sampleLen  = 2048  // keys in the sample the guess is taken from
	scanChunk  = 4096  // elements per scanBlocks call, and so room per call
)

// selectTopK returns TopK's winners, ascending, in scratch the caller hands
// back with selPool.Put(sc). It clamps k to [1, len(g)]; g must be non-empty
// and shorter than 2^31. Long tensors try the sampled selection, which
// selects what the exact one does.
func selectTopK(g []float32, k int) (win []uint32, sc *selScratch) {
	k = min(max(k, 1), len(g))
	sc = selPool.Get().(*selScratch)
	if len(g) >= sampledMin {
		if win = sc.sampled(g, k); win != nil {
			return win, sc
		}
	}
	win, _ = sc.exact(g, k)
	return win, sc
}

// exact is the two-pass selection; it also returns the k-th largest key t.
// One pass over g histograms the exponents, which names the exponent e of the
// k-th magnitude; a second collects the indices of the elements at or above
// e. The rest touches only those: the keys of the ones at e are candidates, a
// radix select over the mantissa digits they differ in narrows them to t, and
// the winners are the collected elements above t plus the first few equal to
// it. Each step is linear in what it is given, so the cost is O(len(g))
// whatever the values. The filtering loops store unconditionally and advance
// conditionally (conditional moves): which elements qualify is nothing a
// branch predictor can learn.
func (sc *selScratch) exact(g []float32, k int) ([]uint32, uint32) {
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

	if cap(sc.sel) < nsel+ncand+2 {
		sc.sel = make([]uint32, nsel+ncand+2)
	}
	sel, cand := sc.sel[:nsel+1], sc.sel[nsel+1:nsel+ncand+2]
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
	return sel[:k], t
}

// sampled is the selection for long tensors, or nil when its guess misses.
// The exact selection over every (len(g)/sampleLen)-th key names a guess a
// few standard deviations below the sample's estimate of the k-th key, and
// one scan collects every element at or above it. If at least k real
// (non-NaN) keys qualify, the k-th key is among them, and the exact
// selection runs on their values only. A guess of key 0 scans for the
// non-zeros, and zeroFill tops up fewer than k of them.
func (sc *selScratch) sampled(g []float32, k int) []uint32 {
	stride := len(g) / sampleLen
	samp := slices.Grow(sc.vals[:0], sampleLen)[:sampleLen]
	for j := range samp {
		samp[j] = g[j*stride]
	}
	// About Binomial(sampleLen, p) sample keys are at or above the k-th key.
	// Past twice the hits that predicts (ties, or a sample that saw only
	// small values), the exact selection is the cheaper way on.
	p := float64(k) / float64(len(g))
	mean := p * sampleLen
	r := min(int(mean+4*math.Sqrt(mean*(1-p)))+2, sampleLen)
	_, guess := sc.exact(samp, r)
	guess = max(guess, 1)
	hits, limit := sc.hits[:0], 2*r*stride
	for lo := 0; lo < len(g) && len(hits) <= limit; lo += scanChunk {
		c := g[lo:min(lo+scanChunk, len(g))]
		hits = slices.Grow(hits, len(c))
		hits = hits[:len(hits)+scanBlocks(c, guess, uint32(lo), hits[len(hits):len(hits)+len(c)])]
	}
	if sc.hits = hits; len(hits) > limit {
		return nil
	}
	vals, nan := slices.Grow(samp[:0], len(hits))[:len(hits)], 0
	for j, i := range hits {
		if vals[j] = g[i]; vals[j] != vals[j] {
			nan++
		}
	}
	sc.vals = vals
	switch nz := len(hits) - nan; {
	case nz >= k:
		win, _ := sc.exact(vals, k)
		for n, j := range win {
			win[n] = hits[j]
		}
		return win
	case guess == 1:
		return sc.zeroFill(g, k, nz)
	}
	return nil
}

// zeroFill is the selection when g has only nz < k non-zero keys, all in
// sc.hits with the NaNs. The winners are those and the k - nz lowest-index
// keys of 0 (±0 and NaN): every index below the m that holds that many,
// then the non-zero hits from m on, in O(k + len(hits)).
func (sc *selScratch) zeroFill(g []float32, k, nz int) []uint32 {
	win, m, rest := slices.Grow(sc.sel[:0], k), uint32(k-nz), []uint32(nil)
	for j, i := range sc.hits {
		if magKey(g[i]) == 0 {
			continue
		} else if i >= m {
			rest = sc.hits[j:]
			break
		}
		m++ // a non-zero below m: the zero keys reach one further
	}
	for i := range m {
		win = append(win, i)
	}
	for _, i := range rest {
		if magKey(g[i]) != 0 {
			win = append(win, i)
		}
	}
	sc.sel = win
	return win
}

// scanGeneric writes base+i to out, ascending, for every g[i] whose key
// bits<<1 (NaN above +Inf) is at least t, and returns how many it wrote: the
// portable scanBlocks and scanSSE's oracle. out must have room for every hit.
func scanGeneric(g []float32, t, base uint32, out []uint32) int {
	n := 0
	for i, v := range g {
		if math.Float32bits(v)<<1 >= t {
			out[n] = base + uint32(i)
			n++
		}
	}
	return n
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
