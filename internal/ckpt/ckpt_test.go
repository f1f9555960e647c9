package ckpt

import (
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/encode"
	"repro/internal/fxrand"
	"repro/internal/grace"
	"repro/internal/optim"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Step:      42,
		Epoch:     3,
		Iter:      7,
		SinceSync: 2,
		Seed:      0xdeadbeef,
		Rank:      1,
		Workers:   4,
		Method:    "dgc",
		Fusion:    grace.FusionConfig{TargetBytes: 1 << 20},
		Params: []Tensor{
			{Name: "w0", Shape: []int{2, 3}, Data: []float32{1, 2, 3, 4, 5, 6}},
			{Name: "b0", Shape: []int{3}, Data: []float32{-0.5, 0, 0.5}},
		},
		SyncPoint: []Tensor{
			{Name: "w0", Shape: []int{2, 3}, Data: []float32{1, 1, 1, 1, 1, 1}},
			{Name: "b0", Shape: []int{3}, Data: []float32{0, 0, 0}},
		},
		Opt: optim.State{
			Name: "momentum-sgd",
			Step: 42,
			Slots: []optim.Slot{
				{Name: "velocity", Data: [][]float32{{6, 5, 4, 3, 2, 1}, nil}},
			},
		},
		Memory: map[string][]float32{
			"w0": {0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
			"b0": {-1, -2, -3},
		},
		Codec: grace.EngineCodecState{
			Method: "dgc",
			Tensors: map[string]map[string][]float32{
				"u": {"w0": {9, 8, 7, 6, 5, 4}},
				"v": {"w0": {1, 0, 1, 0, 1, 0}},
			},
			LaneRNGs: []fxrand.State{
				{Word: 12345, HasSpare: true, Spare: -0.25},
				{Word: 67890},
			},
		},
		Tuner: &grace.TunerState{
			Sig:          "autotune:v1 test",
			Step:         41,
			Switches:     3,
			NextSwitches: 1,
			Cands:        2,
			Assign:       []int32{1, 0},
			Pending:      []bool{true, false},
			LastBytes:    []int64{-1, 640, 128, -1},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestEncodeDecodeMinimal(t *testing.T) {
	want := &Snapshot{Method: "topk", Opt: optim.State{Name: "sgd"}}
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("minimal round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// fusionOffset replays the pre-fusion field sequence to locate where the
// fusion bytes of s's encoding start.
func fusionOffset(s *Snapshot) int {
	w := encode.NewWriter(64)
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
	return w.Len()
}

// TestDecodeRefusesReservedFusionSlots: the two slots after the fusion fill
// target held a per-bucket tensor cap and a by-strategy flag until both
// options were removed. Encode writes them zero; a record with either set —
// a checkpoint from a build that had the options, describing a bucket plan
// this one cannot reproduce — is refused rather than silently replanned.
func TestDecodeRefusesReservedFusionSlots(t *testing.T) {
	s := sampleSnapshot()
	valid := Encode(s)
	// The 1 MiB fill target is a 3-byte uvarint; the slots follow it.
	slots := fusionOffset(s) + 3
	if valid[slots] != 0 || valid[slots+1] != 0 {
		t.Fatalf("Encode wrote reserved slots %d, %d; want both zero", valid[slots], valid[slots+1])
	}
	for name, at := range map[string]int{"tensor cap": slots, "by-strategy flag": slots + 1} {
		b := append([]byte(nil), valid...)
		b[at] = 1
		reseal(b)
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("non-zero %s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	a, b := Encode(sampleSnapshot()), Encode(sampleSnapshot())
	if string(a) != string(b) {
		t.Fatal("two encodings of the same snapshot differ (map-order leak)")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := Encode(sampleSnapshot())
	cases := map[string][]byte{
		"empty":         {},
		"short":         valid[:8],
		"bad-magic":     append([]byte("JUNK"), valid[4:]...),
		"truncated":     valid[:len(valid)-5],
		"no-body":       valid[:8],
		"extra-byte":    append(append([]byte(nil), valid...), 0),
		"missing-crc":   valid[:len(valid)-4],
		"version-burst": func() []byte { b := append([]byte(nil), valid...); b[4] = 0xff; return b }(),
	}
	// Formats no build writes any more (1: before fusion, 2: before the
	// tuner section), stamped and resealed so only the version check can
	// refuse them.
	for name, v := range map[string]byte{"version-1": 1, "version-2": 2} {
		b := append([]byte(nil), valid...)
		b[len(magic)] = v // version u32, little-endian
		reseal(b)
		cases[name] = b
	}
	// Flip a byte in the middle of the body.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	cases["bit-flip"] = flipped

	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
				t.Errorf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestDecodeHostileCountsBounded: a forged record whose CRC is valid but
// whose counts claim far more elements than the file holds must error
// without huge allocation. The CRC gate already rejects casual corruption,
// so forge the CRC too.
func TestDecodeHostileCountsBounded(t *testing.T) {
	s := sampleSnapshot()
	b := Encode(s)
	// Overwrite a region with 0xff (huge uvarints), then re-seal the CRC.
	for i := 20; i < 40 && i < len(b)-4; i++ {
		b[i] = 0xff
	}
	reseal(b)
	if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile counts: err = %v, want ErrCorrupt", err)
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.ckpt")
	want := sampleSnapshot()
	if err := Save(path, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Save/Load round trip mismatch")
	}
	// Overwrite with a new snapshot: still atomic, still loadable.
	want.Step = 99
	if err := Save(path, want); err != nil {
		t.Fatalf("second Save: %v", err)
	}
	got, err = Load(path)
	if err != nil || got.Step != 99 {
		t.Fatalf("after overwrite: snapshot %+v, err %v", got, err)
	}
	// No stray temp files survive.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after saves, want 1", len(entries))
	}
}

// TestCrashMidWriteLeavesPrevious simulates a crash mid-write using the
// exact file names a real crash produces: partial temp files named the way
// Save stages them (canonical name + ".tmp" + random suffix) must not be
// mistaken for checkpoint steps, must not break pruning, and are swept by the
// rank's next save; a torn file at the final path (simulating a non-atomic
// writer) is rejected rather than half-trusted.
func TestCrashMidWriteLeavesPrevious(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := sampleSnapshot()
	write := func(rank int, step int64) {
		s.Rank, s.Step = rank, step
		if err := d.Save(s); err != nil {
			t.Fatalf("Save(rank %d, step %d): %v", rank, step, err)
		}
	}
	write(0, 10)
	write(1, 10)
	write(1, 20)

	// Rank 1 crashed once mid-save of a new step 42 and once mid-re-save of
	// the existing step 20, leaving partial temps with Save's real naming.
	torn := Encode(s)[:30]
	for _, name := range []string{
		"rank001-step000000000042.ckpt.tmp367812345",
		"rank001-step000000000020.ckpt.tmp99",
	} {
		if err := os.WriteFile(filepath.Join(d.root, name), torn, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The phantom step 42 must not be listed, and the half-re-saved step 20
	// must not be double-counted.
	steps, err := d.Steps(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, []int64{10, 20}) {
		t.Fatalf("Steps next to stale temps = %v, want [10 20]", steps)
	}

	// The rank's next save sweeps its stale temps, and pruning keeps working
	// (it must never try to remove the phantom step's canonical path).
	d.Keep = 1
	write(1, 30)
	if steps, err = d.Steps(1); err != nil || !reflect.DeepEqual(steps, []int64{30}) {
		t.Fatalf("after prune Steps = %v, %v; want [30]", steps, err)
	}
	entries, err := os.ReadDir(d.root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".ckpt.tmp") {
			t.Fatalf("stale temp %s survived the rank's next save", e.Name())
		}
	}
	// Rank 0's files are untouched by rank 1's sweep and prune.
	if steps, err = d.Steps(0); err != nil || !reflect.DeepEqual(steps, []int64{10}) {
		t.Fatalf("rank 0 Steps after rank 1's sweep = %v, %v; want [10]", steps, err)
	}

	// A torn file at the final path is detected.
	if err := os.WriteFile(d.Path(0, 10), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load(0, 10); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn final file: err = %v, want ErrCorrupt", err)
	}
}

func TestDirSavePruneLatest(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.Keep = 2
	s := sampleSnapshot()
	s.Rank = 2
	for _, step := range []int64{10, 20, 30, 40} {
		s.Step = step
		if err := d.Save(s); err != nil {
			t.Fatalf("Save(%d): %v", step, err)
		}
	}
	steps, err := d.Steps(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, []int64{30, 40}) {
		t.Fatalf("after pruning steps = %v, want [30 40]", steps)
	}
	latest, err := d.Load(2, steps[len(steps)-1])
	if err != nil || latest.Step != 40 || latest.Rank != 2 {
		t.Fatalf("newest checkpoint = %+v, %v", latest, err)
	}
	// The donor transfer rides the checkpoint encoding.
	if back, err := d.Decode(d.Encode(latest)); err != nil || !reflect.DeepEqual(back, latest) {
		t.Fatalf("Encode/Decode round trip = %+v, %v", back, err)
	}
}

// TestDirStepsListsLoadableOnly: Steps is what a rank offers the sync round,
// so a corrupt file is not a recovery point — even the newest — and the sync
// round's rule then picks the newest step every rank can load.
func TestDirStepsListsLoadableOnly(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := sampleSnapshot()
	for rank, steps := range [][]int64{{10, 20}, {10, 20, 30}} {
		for _, step := range steps {
			s.Rank, s.Step = rank, step
			if err := d.Save(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, err := d.Steps(2); err != nil || len(got) != 0 {
		t.Fatalf("a rank with no files lists %v, %v; want none", got, err)
	}
	// Rank 0's newest file is garbage, rank 1's a bit flip behind a valid
	// header: neither is listed.
	if err := os.WriteFile(d.Path(0, 20), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(d.Path(1, 30))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(d.Path(1, 30), b, 0o644); err != nil {
		t.Fatal(err)
	}
	for rank, want := range [][]int64{{10}, {10, 20}} {
		if got, err := d.Steps(rank); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d Steps = %v, %v; want %v", rank, got, err, want)
		}
	}
	// Everything corrupt: nothing listed, no error — the rank is stateless.
	if err := os.WriteFile(d.Path(0, 10), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Steps(0); err != nil || len(got) != 0 {
		t.Fatalf("all-corrupt Steps = %v, %v; want none", got, err)
	}
}

func TestBitwiseStability(t *testing.T) {
	s := sampleSnapshot()
	s.Params[0].Data[0] = float32(math.Float32frombits(0x7f800001)) // NaN payload preserved?
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float32bits(got.Params[0].Data[0]) != 0x7f800001 {
		t.Fatal("NaN bit pattern not preserved through the codec")
	}
}

// reseal recomputes and overwrites the trailing CRC so tests can forge
// structurally hostile but checksum-valid records.
func reseal(b []byte) {
	body := b[:len(b)-4]
	c := crc32.Checksum(body, castagnoli)
	b[len(b)-4] = byte(c)
	b[len(b)-3] = byte(c >> 8)
	b[len(b)-2] = byte(c >> 16)
	b[len(b)-1] = byte(c >> 24)
}
