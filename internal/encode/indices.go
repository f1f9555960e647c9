package encode

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// EncodeIndices delta-varint encodes an index list. Sparse compressors
// (Top-k, Random-k, DGC, ...) transmit the positions of selected gradient
// elements; delta+LEB128 coding makes dense selections cost ~1 byte per index
// instead of 4.
//
// The input need not be sorted: the positions of a sparse tensor are a set,
// so a list that turns out not to be ascending is encoded from a sorted copy.
// It panics on duplicate or negative indices.
func EncodeIndices(idx []int) []byte {
	out, bad := AppendIndices(make([]byte, 0, len(idx)+8), idx)
	if bad < 0 {
		return out
	}
	sorted := slices.Clone(idx)
	slices.Sort(sorted)
	if out, bad = AppendIndices(out[:0], sorted); bad >= 0 {
		panic(fmt.Sprintf("encode: duplicate or negative index %d", sorted[bad]))
	}
	return out
}

// Index is an integer type an index list may be held in.
type Index interface{ ~int | ~uint32 }

// AppendIndices appends the EncodeIndices block of a strictly ascending list
// to dst. It stops at the first position whose index does not exceed its
// predecessor and returns that position, or -1 when the whole block was
// written.
func AppendIndices[I Index](dst []byte, idx []I) ([]byte, int) {
	dst = binary.AppendUvarint(dst, uint64(len(idx)))
	prev := -1
	for n, i := range idx {
		if int(i) <= prev {
			return dst, n
		}
		dst = binary.AppendUvarint(dst, uint64(int(i)-prev))
		prev = int(i)
	}
	return dst, -1
}

// IndicesLen returns how many bytes AppendIndices appends for a strictly
// ascending idx, so a caller can size one buffer for the block and whatever
// follows it.
func IndicesLen[I Index](idx []I) int {
	uvarintLen := func(x int) int { return (bits.Len64(uint64(x)|1) + 6) / 7 }
	n, prev := uvarintLen(len(idx)), -1
	for _, i := range idx {
		n += uvarintLen(int(i) - prev)
		prev = int(i)
	}
	return n
}

// DecodeIndices reverses EncodeIndices, returning the sorted index list.
func DecodeIndices(buf []byte) ([]int, error) {
	r := NewReader(buf)
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > uint64(len(buf))*8 { // sanity: each index costs >= 1 bit is impossible; >=1 byte
		return nil, fmt.Errorf("encode: implausible index count %d for %d-byte buffer", n, len(buf))
	}
	out := make([]int, n)
	prev := -1
	for i := range out {
		d := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		prev += int(d)
		out[i] = prev
	}
	return out, nil
}

// SortByIndex sorts (idx, vals) pairs by ascending index in place. Sparse
// compressors that select (index, value) pairs in arbitrary order need it
// before delta coding. Each pair is packed into one word, index above value
// bits, so the sort compares integers directly; indices must fit 32 bits.
func SortByIndex(idx []int, vals []float32) {
	if len(idx) != len(vals) {
		panic("encode: SortByIndex length mismatch")
	}
	packed := make([]uint64, len(idx))
	for n, i := range idx {
		if uint64(i) > math.MaxUint32 {
			panic(fmt.Sprintf("encode: index %d outside [0, 2^32)", i))
		}
		packed[n] = uint64(i)<<32 | uint64(math.Float32bits(vals[n]))
	}
	slices.Sort(packed)
	for n, p := range packed {
		idx[n] = int(p >> 32)
		vals[n] = math.Float32frombits(uint32(p))
	}
}
