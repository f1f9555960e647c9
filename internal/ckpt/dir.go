package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/grace"
	"repro/internal/telemetry"
)

// ErrNoCheckpoint is returned by Latest when a rank has no loadable
// checkpoint (none written yet, or every candidate is corrupt).
var ErrNoCheckpoint = errors.New("ckpt: no loadable checkpoint")

// DefaultKeep is how many recent checkpoints a Dir retains per rank.
const DefaultKeep = 3

// Save atomically writes the snapshot to path: the record is staged in a
// temp file in the same directory, fsynced, renamed over the destination,
// and the directory is fsynced so the rename itself is durable. A crash at
// any point leaves either the old file or the new one at path, never a torn
// mix.
func Save(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ckpt: staging temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	buf := Encode(s)
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: publishing %s: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	telemetry.Default.Add(telemetry.CtrCheckpointSaves, 1)
	telemetry.Default.Add(telemetry.CtrCheckpointBytes, int64(len(buf)))
	return nil
}

// Load reads and validates the checkpoint at path.
func Load(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading %s: %w", path, err)
	}
	s, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	return s, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: opening dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ckpt: syncing dir %s: %w", dir, err)
	}
	return nil
}

// Dir manages one rank's checkpoints inside a shared directory. Files are
// named rank%03d-step%012d.ckpt so a plain directory listing sorts them by
// rank then step, and every rank of a run can share one directory.
type Dir struct {
	root string
	rank int
	// Keep bounds how many recent checkpoints SaveStep retains for this
	// rank; older ones are pruned after each successful save. Zero means
	// DefaultKeep.
	Keep int
}

// OpenDir creates (if needed) and wraps a checkpoint directory for a rank,
// sweeping any stale temp files a crash mid-Save left behind for that rank.
func OpenDir(root string, rank int) (*Dir, error) {
	if rank < 0 {
		return nil, fmt.Errorf("ckpt: negative rank %d", rank)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating %s: %w", root, err)
	}
	d := &Dir{root: root, rank: rank}
	if err := d.sweepStaleTemps(); err != nil {
		return nil, err
	}
	return d, nil
}

// sweepStaleTemps removes temp files that a previous incarnation of this
// rank, crashing mid-Save, left behind. Only this rank's temps are touched:
// other ranks sharing the directory may have a save in flight right now, but
// this rank cannot — its saves are synchronous and OpenDir precedes the
// first one.
func (d *Dir) sweepStaleTemps() error {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return fmt.Errorf("ckpt: listing %s: %w", d.root, err)
	}
	prefix := fmt.Sprintf("rank%03d-", d.rank)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.Contains(name, ".ckpt.tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(d.root, name)); err != nil {
			return fmt.Errorf("ckpt: sweeping stale temp %s: %w", name, err)
		}
	}
	return nil
}

// Path returns the file path for this rank's checkpoint at a step.
func (d *Dir) Path(step int64) string {
	return filepath.Join(d.root, fmt.Sprintf("rank%03d-step%012d.ckpt", d.rank, step))
}

// SaveStep atomically writes the snapshot under its step's canonical name
// and prunes old checkpoints beyond Keep.
func (d *Dir) SaveStep(s *Snapshot) error {
	if err := Save(d.Path(s.Step), s); err != nil {
		return err
	}
	return d.prune()
}

// RejoinConfig returns the grace self-healing persistence hooks wired to
// this directory: step listing and own-snapshot loads come from the rank's
// files here, and the donor state transfer rides the checkpoint encoding
// (versioned, CRC-sealed — a truncated or corrupted transfer is rejected,
// not trusted). Callers set the policy fields (SyncOnStart, OnHeal) on the
// returned value.
func (d *Dir) RejoinConfig() *grace.RejoinConfig {
	return &grace.RejoinConfig{
		ListSteps: d.Steps,
		LoadLocal: func(step int64) (*Snapshot, error) { return Load(d.Path(step)) },
		Encode:    func(s *Snapshot) ([]byte, error) { return Encode(s), nil },
		Decode:    Decode,
	}
}

// Steps lists this rank's checkpoint steps in ascending order, including
// files that may turn out to be corrupt on load.
func (d *Dir) Steps() ([]int64, error) {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, fmt.Errorf("ckpt: listing %s: %w", d.root, err)
	}
	var steps []int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var rank int
		var step int64
		if _, err := fmt.Sscanf(e.Name(), "rank%03d-step%012d.ckpt", &rank, &step); err != nil || rank != d.rank {
			continue
		}
		// Sscanf does not anchor the end of the name, so a stale temp file
		// from a crash mid-Save (rank001-step…042.ckpt.tmp367812345) would
		// parse as a real step; require an exact reconstruction match.
		if e.Name() != fmt.Sprintf("rank%03d-step%012d.ckpt", rank, step) {
			continue
		}
		steps = append(steps, step)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	return steps, nil
}

// Latest loads the newest loadable checkpoint for this rank, silently
// skipping corrupt files (a crash mid-write leaves at most a stale temp
// file, but disk faults can still bite). Returns ErrNoCheckpoint when
// nothing loads.
func (d *Dir) Latest() (*Snapshot, error) {
	steps, err := d.Steps()
	if err != nil {
		return nil, err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		s, err := Load(d.Path(steps[i]))
		if err == nil {
			return s, nil
		}
		if !errors.Is(err, ErrCorrupt) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: rank %d in %s", ErrNoCheckpoint, d.rank, d.root)
}

// LatestStep reports the newest step with a loadable checkpoint for this
// rank, or -1 when none loads.
func (d *Dir) LatestStep() int64 {
	s, err := d.Latest()
	if err != nil {
		return -1
	}
	return s.Step
}

func (d *Dir) prune() error {
	keep := d.Keep
	if keep <= 0 {
		keep = DefaultKeep
	}
	steps, err := d.Steps()
	if err != nil {
		return err
	}
	for len(steps) > keep {
		if err := os.Remove(d.Path(steps[0])); err != nil {
			return fmt.Errorf("ckpt: pruning: %w", err)
		}
		steps = steps[1:]
	}
	return nil
}

// CommonStep reports the newest step for which every rank 0..workers-1 has
// a loadable checkpoint in root — the consistent rollback point after a
// worker death. All ranks checkpoint at the same lockstep steps, but a
// crash can leave the victim one interval behind the survivors, so the
// intersection of loadable steps is computed explicitly. Returns -1 when no
// common step exists.
func CommonStep(root string, workers int) int64 {
	if workers <= 0 {
		return -1
	}
	counts := map[int64]int{}
	for rank := 0; rank < workers; rank++ {
		d := &Dir{root: root, rank: rank}
		steps, err := d.Steps()
		if err != nil {
			return -1
		}
		for _, step := range steps {
			if _, err := Load(d.Path(step)); err == nil {
				counts[step]++
			}
		}
	}
	common := int64(-1)
	for step, n := range counts {
		if n == workers && step > common {
			common = step
		}
	}
	return common
}
