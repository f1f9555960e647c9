// Package ckpt implements crash-consistent checkpointing of per-rank
// training state.
//
// A checkpoint file is a single binary record:
//
//	magic "GRCK" | u32 version | body | u32 CRC-32C
//
// The CRC (Castagnoli) covers everything before it, so truncation, bit rot,
// and partial writes are all detected before any of the body is trusted. The
// body is encoded with internal/encode's bounded reader/writer; every
// length prefix is validated against the bytes actually present, so a
// hostile or corrupted file can never force a huge allocation. Decode
// failures surface as errors wrapping ErrCorrupt.
//
// Writes are atomic: Save stages the record in a temp file in the target
// directory, fsyncs it, renames it over the destination, and fsyncs the
// directory. A crash at any point leaves either the previous checkpoint or
// the new one — never a torn file at the final path.
//
// The snapshot captures everything a rank needs to resume training
// bitwise-identically: model parameters, optimizer slots, the GRACE
// error-feedback residual memory, compressor-internal codec state (DGC
// momentum/accumulators, QSGD rounding RNG streams), and the loop position.
package ckpt

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/encode"
	"repro/internal/fxrand"
	"repro/internal/grace"
	"repro/internal/optim"
)

const (
	// Version is the checkpoint format version, the only one Decode accepts.
	Version = 3

	magic      = "GRCK"
	headerLen  = len(magic) + 4 // magic + version
	trailerLen = 4              // CRC-32C
)

// ErrCorrupt is wrapped by every decode failure: bad magic, unsupported
// version, CRC mismatch, truncation, or malformed body. A file rejected
// with ErrCorrupt must not be trusted; recovery falls back to the previous
// checkpoint.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Tensor is one named dense tensor (a model parameter or sync-point copy).
type Tensor = grace.ParamTensor

// Snapshot is the complete per-rank training state at a step boundary; see
// grace.Snapshot for the field-by-field contract. The alias keeps one
// canonical struct: grace owns capture/restore semantics, this package owns
// the durable encoding.
type Snapshot = grace.Snapshot

// Encode serializes the snapshot into the versioned, CRC-sealed record.
func Encode(s *Snapshot) []byte {
	w := encode.NewWriter(1024)
	w.Raw([]byte(magic))
	w.U32(Version)

	w.U64(uint64(s.Step))
	w.Uvarint(uint64(s.Epoch))
	w.Uvarint(uint64(s.Iter))
	w.Uvarint(uint64(s.SinceSync))
	w.U64(s.Seed)
	w.Uvarint(uint64(s.Rank))
	w.Uvarint(uint64(s.Workers))
	putString(w, s.Method)
	w.Uvarint(uint64(s.Fusion.TargetBytes))
	// Two reserved slots, always zero: the per-bucket tensor cap and the
	// by-strategy flag the fusion policy carried until both were removed.
	w.Uvarint(0)
	w.U8(0)

	putTensors(w, s.Params)
	if s.SyncPoint != nil {
		w.U8(1)
		putTensors(w, s.SyncPoint)
	} else {
		w.U8(0)
	}

	// Optimizer state.
	putString(w, s.Opt.Name)
	w.U64(uint64(s.Opt.Step))
	w.Uvarint(uint64(len(s.Opt.Slots)))
	for _, slot := range s.Opt.Slots {
		putString(w, slot.Name)
		w.Uvarint(uint64(len(slot.Data)))
		for _, d := range slot.Data {
			if d == nil {
				w.U8(0)
				continue
			}
			w.U8(1)
			w.F32Slice(d)
		}
	}

	// EF residual memory (sorted for deterministic bytes).
	if s.Memory != nil {
		w.U8(1)
		putF32Map(w, s.Memory)
	} else {
		w.U8(0)
	}

	// Codec state.
	putString(w, s.Codec.Method)
	slots := make([]string, 0, len(s.Codec.Tensors))
	for name := range s.Codec.Tensors {
		slots = append(slots, name)
	}
	sort.Strings(slots)
	w.Uvarint(uint64(len(slots)))
	for _, name := range slots {
		putString(w, name)
		putF32Map(w, s.Codec.Tensors[name])
	}
	w.Uvarint(uint64(len(s.Codec.LaneRNGs)))
	for _, r := range s.Codec.LaneRNGs {
		w.U64(r.Word)
		if r.HasSpare {
			w.U8(1)
		} else {
			w.U8(0)
		}
		w.F64(r.Spare)
	}

	// Autotune policy state (v3+): presence byte, then the trajectory.
	if t := s.Tuner; t != nil {
		w.U8(1)
		putString(w, t.Sig)
		w.U64(uint64(t.Step))
		w.U64(uint64(t.Switches))
		w.Uvarint(uint64(t.NextSwitches))
		w.Uvarint(uint64(t.Cands))
		w.Uvarint(uint64(len(t.Assign)))
		for i, a := range t.Assign {
			w.Uvarint(uint64(a))
			if i < len(t.Pending) && t.Pending[i] {
				w.U8(1)
			} else {
				w.U8(0)
			}
		}
		w.Uvarint(uint64(len(t.LastBytes)))
		for _, b := range t.LastBytes {
			// Stored as value+1 so the -1 "never observed" sentinel encodes as
			// 0 without a sign bit.
			w.U64(uint64(b + 1))
		}
	} else {
		w.U8(0)
	}

	w.U32(crc32.Checksum(w.Bytes(), castagnoli))
	return w.Bytes()
}

// Decode parses and validates a checkpoint record. Any structural problem —
// short file, bad magic, unknown version, CRC mismatch, malformed or
// trailing body bytes — returns an error wrapping ErrCorrupt. Decode never
// panics and never allocates more than the input size warrants, no matter
// how hostile the input.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed framing", ErrCorrupt, len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:len(magic)])
	}
	body := b[:len(b)-trailerLen]
	want := crc32.Checksum(body, castagnoli)
	got := uint32(b[len(b)-4]) | uint32(b[len(b)-3])<<8 | uint32(b[len(b)-2])<<16 | uint32(b[len(b)-1])<<24
	if got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCorrupt, got, want)
	}

	r := encode.NewReader(body[len(magic):])
	if v := r.U32(); v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorrupt, v, Version)
	}

	s := &Snapshot{}
	s.Step = int64(r.U64())
	s.Epoch = boundedInt(r)
	s.Iter = boundedInt(r)
	s.SinceSync = boundedInt(r)
	s.Seed = r.U64()
	s.Rank = boundedInt(r)
	s.Workers = boundedInt(r)
	s.Method = getString(r)
	s.Fusion.TargetBytes = boundedInt(r)
	// A non-zero reserved slot describes a bucket plan this build cannot
	// reproduce; replanning silently would desync the resumed run's
	// collective sequence from the one the checkpoint was taken in.
	if maxTensors, byStrategy := r.Uvarint(), r.U8(); maxTensors != 0 || byStrategy != 0 {
		return nil, fmt.Errorf("%w: fusion policy uses removed options (tensor cap %d, by-strategy flag %d)",
			ErrCorrupt, maxTensors, byStrategy)
	}

	var err error
	if s.Params, err = getTensors(r); err != nil {
		return nil, err
	}
	if r.U8() == 1 {
		if s.SyncPoint, err = getTensors(r); err != nil {
			return nil, err
		}
	}

	s.Opt.Name = getString(r)
	s.Opt.Step = int64(r.U64())
	nSlots := boundedCount(r, 2)
	for i := 0; i < nSlots && r.Err() == nil; i++ {
		slot := optim.Slot{Name: getString(r)}
		n := boundedCount(r, 1)
		slot.Data = make([][]float32, 0, n)
		for j := 0; j < n && r.Err() == nil; j++ {
			if r.U8() == 1 {
				slot.Data = append(slot.Data, r.F32Slice())
			} else {
				slot.Data = append(slot.Data, nil)
			}
		}
		s.Opt.Slots = append(s.Opt.Slots, slot)
	}

	if r.U8() == 1 {
		if s.Memory, err = getF32Map(r); err != nil {
			return nil, err
		}
	}

	s.Codec.Method = getString(r)
	nCodec := boundedCount(r, 2)
	for i := 0; i < nCodec && r.Err() == nil; i++ {
		name := getString(r)
		m, err := getF32Map(r)
		if err != nil {
			return nil, err
		}
		if s.Codec.Tensors == nil {
			s.Codec.Tensors = map[string]map[string][]float32{}
		}
		s.Codec.Tensors[name] = m
	}
	nRNG := boundedCount(r, 17)
	for i := 0; i < nRNG && r.Err() == nil; i++ {
		s.Codec.LaneRNGs = append(s.Codec.LaneRNGs, fxrand.State{
			Word:     r.U64(),
			HasSpare: r.U8() == 1,
			Spare:    r.F64(),
		})
	}

	if r.U8() == 1 {
		t := &grace.TunerState{}
		t.Sig = getString(r)
		t.Step = int64(r.U64())
		t.Switches = int64(r.U64())
		t.NextSwitches = int32(boundedInt(r))
		t.Cands = int32(boundedInt(r))
		nAssign := boundedCount(r, 2)
		if nAssign > 0 {
			t.Assign = make([]int32, 0, nAssign)
			t.Pending = make([]bool, 0, nAssign)
		}
		for i := 0; i < nAssign && r.Err() == nil; i++ {
			t.Assign = append(t.Assign, int32(boundedInt(r)))
			t.Pending = append(t.Pending, r.U8() == 1)
		}
		nBytes := boundedCount(r, 8)
		if nBytes > 0 {
			t.LastBytes = make([]int64, 0, nBytes)
		}
		for i := 0; i < nBytes && r.Err() == nil; i++ {
			// Stored as value+1 (sentinel -1 encodes as 0).
			raw := r.U64()
			if raw > math.MaxInt64 {
				poison(r)
				break
			}
			t.LastBytes = append(t.LastBytes, int64(raw)-1)
		}
		s.Tuner = t
	}

	if r.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, r.Err())
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after body", ErrCorrupt, r.Remaining())
	}
	return s, nil
}

func putString(w *encode.Writer, s string) { w.BytesSlice([]byte(s)) }

func getString(r *encode.Reader) string { return string(r.BytesSlice()) }

func putTensors(w *encode.Writer, ts []Tensor) {
	w.Uvarint(uint64(len(ts)))
	for _, t := range ts {
		putString(w, t.Name)
		w.Uvarint(uint64(len(t.Shape)))
		for _, d := range t.Shape {
			w.Uvarint(uint64(d))
		}
		w.F32Slice(t.Data)
	}
}

func getTensors(r *encode.Reader) ([]Tensor, error) {
	n := boundedCount(r, 3)
	if n == 0 {
		// Canonical nil keeps Encode∘Decode a fixed point.
		return nil, errOf(r)
	}
	out := make([]Tensor, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		t := Tensor{Name: getString(r)}
		nd := boundedCount(r, 1)
		for j := 0; j < nd && r.Err() == nil; j++ {
			t.Shape = append(t.Shape, boundedInt(r))
		}
		t.Data = r.F32Slice()
		out = append(out, t)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return out, nil
}

func putF32Map(w *encode.Writer, m map[string][]float32) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		putString(w, name)
		w.F32Slice(m[name])
	}
}

func getF32Map(r *encode.Reader) (map[string][]float32, error) {
	n := boundedCount(r, 2)
	out := make(map[string][]float32, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		name := getString(r)
		out[name] = r.F32Slice()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return out, nil
}

// boundedCount reads an element count and clamps it against the bytes left:
// each element costs at least minBytes on the wire, so a claimed count
// exceeding Remaining()/minBytes is hostile — poison the reader instead of
// pre-allocating for it.
func boundedCount(r *encode.Reader, minBytes int) int {
	n := r.Uvarint()
	if r.Err() != nil {
		return 0
	}
	if n > uint64(r.Remaining())/uint64(minBytes) {
		poison(r)
		return 0
	}
	return int(n)
}

// boundedInt reads a uvarint that must fit a non-negative int32, so the
// value stays positive even where int is 32 bits (GOARCH=386/arm).
func boundedInt(r *encode.Reader) int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		poison(r)
		return 0
	}
	return int(v)
}

// errOf wraps a reader's pending error as ErrCorrupt (nil when clean).
func errOf(r *encode.Reader) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// poison forces the reader into its sticky error state by demanding one byte
// more than remains; every later read then fails and Decode reports
// ErrCorrupt.
func poison(r *encode.Reader) {
	r.Raw(r.Remaining() + 1)
}
