package encode

import "fmt"

// zrleEscape marks a zero run. 3LC's lossless stage exploits the fact that
// after ternary quantization most symbols are zero; runs of zeros compress to
// an escape byte plus a varint run length.
const zrleEscape = 0x00

// ZRLECompress run-length encodes zero bytes in src. Non-zero bytes are
// emitted verbatim; a run of n >= 1 zero bytes becomes the escape byte
// followed by a varint(n). Worst case (no zeros) adds no overhead.
func ZRLECompress(src []byte) []byte {
	w := NewWriter(len(src)/2 + 16)
	i := 0
	for i < len(src) {
		if src[i] != 0 {
			w.U8(src[i])
			i++
			continue
		}
		j := i
		for j < len(src) && src[j] == 0 {
			j++
		}
		w.U8(zrleEscape)
		w.Uvarint(uint64(j - i))
		i = j
	}
	return w.Bytes()
}

// ZRLEDecompress reverses ZRLECompress. n is the expected decoded length and
// guards against corrupt input. It also sizes the output up front, so the
// caller must bound it by what it knows without the input (a tensor's
// size), never read it off the wire. A negative n is an error.
func ZRLEDecompress(src []byte, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("encode: ZRLE expected length %d is negative", n)
	}
	out := make([]byte, 0, n)
	r := NewReader(src)
	for r.Remaining() > 0 {
		b := r.U8()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if b != zrleEscape {
			out = append(out, b)
			continue
		}
		run := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if uint64(len(out))+run > uint64(n) {
			return nil, fmt.Errorf("encode: ZRLE run overflows expected length %d", n)
		}
		for k := uint64(0); k < run; k++ {
			out = append(out, 0)
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("encode: ZRLE decoded %d bytes, want %d", len(out), n)
	}
	return out, nil
}
