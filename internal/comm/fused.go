package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Fused-payload framing: the wire format the engine's tensor-fusion layer
// uses to carry one bucket's per-tensor payloads in a single collective
// round. The frame is transport-agnostic — it rides inside an
// AllgatherBytes payload on the in-process hub exactly as on the TCP ring —
// and deliberately minimal:
//
//	u32 count | u32 len_0 ... u32 len_{count-1} | payload_0 ... payload_{count-1}
//
// All integers are little-endian. Zero-length parts are legal (a compressor
// may emit an empty payload for an all-zero tensor). SplitFused returns
// subslices of the input — no copying — because the engine immediately hands
// each part to a per-tensor decoder that treats it as read-only.
//
// A frame of exactly one part is the bare payload: no header, overhead 0.
// This is the one place that rule lives, and it is what makes an unfused
// exchange — a bucket of one — byte-identical on the wire to a per-tensor
// collective. The layouts cannot be confused because the part count is never
// taken from the wire: both sides know their bucket sizes a priori, and
// SplitFused is told how many parts to expect.
//
// Decoding is hostile-input safe: the caller supplies the slice the parts
// land in, and the header is validated against the bytes actually present,
// so a corrupt or adversarial frame can neither over-allocate nor panic (see
// FuzzSplitFused).

// ErrBadFusedFrame is wrapped by every SplitFused failure: short header,
// part count or lengths inconsistent with the bytes present, or trailing
// garbage after the last part.
var ErrBadFusedFrame = errors.New("comm: malformed fused frame")

// FusedOverhead returns the framing overhead in bytes of a fused frame
// carrying n parts: the header (count word plus one length word per part),
// or nothing for the bare one-part frame.
func FusedOverhead(n int) int {
	if n == 1 {
		return 0
	}
	return 4 + 4*n
}

// FusedSize returns the exact encoded size of a fused frame carrying parts.
func FusedSize(parts [][]byte) int {
	n := FusedOverhead(len(parts))
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// AppendFused appends the fused frame for parts to dst and returns the
// extended slice. Pass nil dst to allocate exactly; pass a reused buffer to
// amortize. A one-part frame appended to an empty dst is parts[0] itself, not
// a copy.
func AppendFused(dst []byte, parts [][]byte) []byte {
	if len(parts) == 1 {
		if len(dst) == 0 {
			return parts[0]
		}
		return append(dst, parts[0]...)
	}
	if need := len(dst) + FusedSize(parts); cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(parts)))
	for _, p := range parts {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
	}
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// SplitFused parses a fused frame of exactly len(parts) parts into parts, as
// subslices of b (zero-copy; the parts alias b). Every structural violation —
// truncated header, a part count other than len(parts), lengths exceeding the
// bytes present, or trailing bytes after the last part — returns an error
// wrapping ErrBadFusedFrame: the engine knows its bucket sizes a priori, so a
// peer disagreeing on the count is a protocol violation, not a recoverable
// layout. On error parts is left partly written.
func SplitFused(b []byte, parts [][]byte) error {
	n := len(parts)
	if n == 1 {
		parts[0] = b
		return nil
	}
	if len(b) < 4 {
		return fmt.Errorf("%w: %d bytes is shorter than the count header", ErrBadFusedFrame, len(b))
	}
	if count := binary.LittleEndian.Uint32(b); uint64(count) != uint64(n) {
		return fmt.Errorf("%w: frame carries %d parts, want %d", ErrBadFusedFrame, count, n)
	}
	head := FusedOverhead(n)
	if len(b) < head {
		return fmt.Errorf("%w: %d bytes cannot frame %d parts", ErrBadFusedFrame, len(b), n)
	}
	body := b[head:]
	off := uint64(0)
	for i := range parts {
		ln := uint64(binary.LittleEndian.Uint32(b[4+4*i:]))
		if off+ln > uint64(len(body)) {
			return fmt.Errorf("%w: parts declare more than the %d payload bytes the frame carries", ErrBadFusedFrame, len(body))
		}
		parts[i] = body[off : off+ln : off+ln]
		off += ln
	}
	if off != uint64(len(body)) {
		return fmt.Errorf("%w: parts declare %d payload bytes, frame carries %d", ErrBadFusedFrame, off, len(body))
	}
	return nil
}
