package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// FuzzReadFrame drives the ring's frame codec with arbitrary byte streams:
// it must either return a frame within the configured bound or a clean
// error — never panic, and never allocate a body larger than maxFrame from a
// hostile length prefix. The float-frame reader sees the same streams as a
// 3-float and a 5-float chunk (longer than the 16-byte read buffer), in both
// the store and the add phase: it must take the header plus exactly the
// chunk's body bytes, or reject a header of any other length without touching
// the body, and the floats it accepts must be the ones the per-float
// little-endian decode loop yields.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, []byte("hello")))
	f.Add(appendFrame(nil, leFloats(1, -2, 3)))
	f.Add(appendFrame(nil, leFloats(1, -2, 3))[:9])
	f.Add(appendFrame(appendFrame(nil, nil), []byte{1, 2, 3}))
	f.Add(hostileFrame(1<<32 - 1))
	f.Add(hostileFrame(1 << 20))
	f.Add([]byte{0xFF, 0xFF})
	f.Add(appendFrame(nil, leFloats(0.5, -2, 7e-45, 1e38, -3)))
	f.Add(appendFrame(nil, leFloats(1, 2, 3, 4, 5))[:17])
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFrame = 1 << 16
		for _, n := range []int{3, 5} {
			for _, add := range []bool{false, true} {
				src := bytes.NewReader(data)
				fr := bufio.NewReaderSize(src, 16)
				chunk := []float32{0.25, -1, 3e38, 0, -7}[:n]
				var stage []float32
				if add {
					stage = make([]float32, 2) // several pieces per chunk
				}
				err := readF32Frame(fr, maxFrame, chunk, stage)
				taken := len(data) - src.Len() - fr.Buffered()
				want := 4 + 4*n
				switch {
				case err == nil && taken != want:
					t.Fatalf("%d-float frame accepted after %d bytes, want %d", n, taken, want)
				case (errors.Is(err, ErrCorrupt) || errors.Is(err, ErrFrameTooLarge)) && taken != 4:
					t.Fatalf("mis-sized frame rejected after %d bytes, want the 4-byte header only (%v)", taken, err)
				case taken > want:
					t.Fatalf("float reader took %d bytes for a %d-byte chunk (%v)", taken, 4*n, err)
				}
				oracle := []float32{0.25, -1, 3e38, 0, -7}[:n]
				oerr := decodeF32FrameLoop(bufio.NewReaderSize(bytes.NewReader(data), 16), maxFrame, oracle, add)
				if (err == nil) != (oerr == nil) {
					t.Fatalf("n=%d add=%v: reader says %v, decode loop says %v", n, add, err, oerr)
				}
				match := bitsEqual // stored floats are the body's own bits
				if add {
					match = sameFloats
				}
				if err == nil && !match(chunk, oracle) {
					t.Fatalf("n=%d add=%v: reader gives %v, decode loop %v", n, add, chunk, oracle)
				}
			}
		}
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			frame, err := readFrame(r, maxFrame)
			if err != nil {
				if errors.Is(err, ErrFrameTooLarge) && len(data) < 4 {
					t.Fatalf("too-large verdict from a %d-byte stream", len(data))
				}
				return
			}
			if len(frame) > maxFrame {
				t.Fatalf("frame of %d bytes exceeds bound %d", len(frame), maxFrame)
			}
		}
	})
}

// decodeF32FrameLoop is the float-frame reader as a per-float decode loop
// over the read buffer, the oracle FuzzReadFrame holds readF32Frame to.
func decodeF32FrameLoop(r *bufio.Reader, maxFrame int, dst []float32, add bool) error {
	n, err := readFrameLen(r, maxFrame)
	if err != nil {
		return err
	}
	if n != 4*len(dst) {
		return ErrCorrupt
	}
	for len(dst) > 0 {
		if _, err := r.Peek(4); err != nil {
			return io.ErrUnexpectedEOF
		}
		m := min(len(dst), r.Buffered()/4)
		p, _ := r.Peek(4 * m)
		for i := range dst[:m] {
			v := math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
			if add {
				v = dst[i] + v
			}
			dst[i] = v
		}
		r.Discard(4 * m)
		dst = dst[m:]
	}
	return nil
}

// sameFloats is bitsEqual, except that any NaN matches any NaN: which NaN
// payload an add returns depends on operand order inside the instruction.
func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != a[i] || b[i] != b[i] {
			if a[i] == a[i] || b[i] == b[i] {
				return false
			}
		} else if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzRingHandshake drives the generation protocol's decoders — the dialer
// handshake record, the acceptor reply, and the stateful heartbeat stream
// parser — with hostile bytes under arbitrary chunking. They must never
// panic, must reject anything but an exact record with a typed error
// (ErrCorrupt, or ErrStaleGeneration for a mis-stamped ping), and accepted
// records must round-trip through the encoder.
func FuzzRingHandshake(f *testing.F) {
	f.Add([]byte{}, uint64(0), 1)
	f.Add(appendRecord(nil, preambleData, 7), uint64(7), 4)
	f.Add(appendRecord(nil, confirmMagic, 1<<40), uint64(1), 0)
	f.Add(appendRecord(nil, hsAccept, 1), uint64(1), 3)
	f.Add(appendRecord(nil, hsReject, 2), uint64(2), 9)
	f.Add(appendRecord(appendRecord(nil, preambleHeartbeat, 3), preambleHeartbeat, 3), uint64(3), 9)
	f.Add(appendRecord(nil, preambleHeartbeat, 5), uint64(6), 2)
	f.Add([]byte{hbBye}, uint64(0), 0)
	f.Add([]byte{preambleHeartbeat, 0, 0}, uint64(0), 2)
	f.Fuzz(func(t *testing.T, data []byte, gen uint64, split int) {
		for _, kinds := range []string{kindsOpen + string(confirmMagic), kindsReply} {
			kind, g, err := parseRecord(data, kinds)
			if err == nil {
				if !bytes.Equal(appendRecord(nil, kind, g), data) {
					t.Fatalf("accepted record does not round-trip: %q", data)
				}
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("record rejection is untyped: %v", err)
			}
		}

		// The heartbeat stream parser, fed the same bytes in two arbitrary
		// pieces: partial records must carry across feeds, and any verdict
		// must be typed.
		if split < 0 {
			split = -split
		}
		split %= len(data) + 1
		var p hbParser
		for _, chunk := range [][]byte{data[:split], data[split:]} {
			bye, err := p.feed(chunk, gen)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrStaleGeneration) {
					t.Fatalf("heartbeat verdict is untyped: %v", err)
				}
				return
			}
			if bye {
				return
			}
		}
		if len(p.buf) >= handshakeLen {
			t.Fatalf("parser retained %d buffered bytes past a whole record", len(p.buf))
		}
	})
}

// FuzzFrameRoundTrip checks append/read are inverses for arbitrary payloads
// under the bound.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > 1<<20 {
			t.Skip()
		}
		stream := appendFrame(nil, payload)
		r := bufio.NewReader(bytes.NewReader(stream))
		got, err := readFrame(r, 1<<20)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(payload))
		}
	})
}

// FuzzElasticHandshake drives the elastic membership wire surface with
// arbitrary bytes: the member-list codec the join/probe exchanges speak, and
// the set algebra the grow/shrink commits rely on. Hostile input must be
// rejected with typed ErrCorrupt errors (never a panic or an oversized
// allocation), accepted blobs must round-trip exactly, and the membership
// digest that guards ring confirmation must stay nonzero and list-sensitive.
func FuzzElasticHandshake(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(1), uint32(2))
	f.Add(encodeMembers([]int{0, 1, 2}), uint32(0), uint32(1), uint32(2))
	f.Add(encodeMembers([]int{3}), uint32(3), uint32(3), uint32(3))
	f.Add([]byte{0, 0, 0, 1}, uint32(1), uint32(0), uint32(5))                         // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint32(0), uint32(2), uint32(4))             // hostile count
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 5}, uint32(5), uint32(6), uint32(7)) // duplicate
	f.Fuzz(func(t *testing.T, data []byte, a, b, c uint32) {
		members, err := decodeMembers(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("member-list rejection is untyped: %v", err)
			}
		} else {
			if len(members) == 0 || len(members) > maxMembers {
				t.Fatalf("accepted member list of size %d outside [1,%d]", len(members), maxMembers)
			}
			for i, m := range members {
				if m < 0 || m > maxMembers {
					t.Fatalf("accepted out-of-range member %d", m)
				}
				if i > 0 && m <= members[i-1] {
					t.Fatalf("accepted non-ascending member list %v", members)
				}
				if indexOf(members, m) != i {
					t.Fatalf("indexOf disagrees with position for %v", members)
				}
			}
			if !bytes.Equal(encodeMembers(members), data) {
				t.Fatalf("accepted member list does not round-trip: %q", data)
			}
			if membershipDigest(members) == 0 {
				t.Fatalf("zero digest for %v", members)
			}
		}

		// A synthesized list from the fuzzed ranks must always survive the
		// codec: union it, encode it, decode it back identically.
		set := sortedUnion([]int{int(a % maxMembers)},
			sortedUnion([]int{int(b % maxMembers)}, []int{int(c % maxMembers)}))
		got, err := decodeMembers(encodeMembers(set))
		if err != nil {
			t.Fatalf("valid member list %v rejected: %v", set, err)
		}
		for i := range set {
			if got[i] != set[i] {
				t.Fatalf("round trip changed %v to %v", set, got)
			}
		}
		if d := membershipDigest(set); d == 0 {
			t.Fatalf("zero digest for %v", set)
		} else if len(set) > 1 && d == membershipDigest(set[:len(set)-1]) {
			t.Fatalf("digest insensitive to dropping the last member of %v", set)
		}
	})
}
