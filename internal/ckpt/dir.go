package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/grace"
	"repro/internal/telemetry"
)

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

// Dir is the on-disk grace.Store: every rank's checkpoints in one shared
// directory, named rank%03d-step%012d.ckpt so a plain listing sorts them by
// rank then step. Every method is keyed by original rank, so one Dir serves
// all ranks of a run, in one process or many.
type Dir struct {
	root string
	// Keep bounds how many recent checkpoints Save retains per rank; older
	// ones are pruned after each successful save. Zero means DefaultKeep.
	Keep int
}

var _ grace.Store = (*Dir)(nil)

// OpenDir creates (if needed) and wraps a checkpoint directory.
func OpenDir(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating %s: %w", root, err)
	}
	return &Dir{root: root}, nil
}

// Path returns the file path of rank's checkpoint at a step.
func (d *Dir) Path(rank int, step int64) string {
	return filepath.Join(d.root, fmt.Sprintf("rank%03d-step%012d.ckpt", rank, step))
}

// Save atomically writes the snapshot under its rank's and step's canonical
// name, then prunes that rank's checkpoints beyond Keep.
func (d *Dir) Save(s *Snapshot) error {
	if err := Save(d.Path(s.Rank, s.Step), s); err != nil {
		return err
	}
	return d.prune(s.Rank)
}

// Steps lists the steps of rank's checkpoints that load, ascending: a file a
// disk fault or a torn write corrupted is not a recovery point.
func (d *Dir) Steps(rank int) ([]int64, error) {
	steps, _, err := d.list(rank)
	if err != nil {
		return nil, err
	}
	loadable := steps[:0]
	for _, step := range steps {
		if _, err := d.Load(rank, step); err == nil {
			loadable = append(loadable, step)
		}
	}
	return loadable, nil
}

// Load reads rank's checkpoint at step.
func (d *Dir) Load(rank int, step int64) (*Snapshot, error) { return Load(d.Path(rank, step)) }

// Encode and Decode carry a snapshot through the donor state transfer in the
// checkpoint encoding: versioned and CRC-sealed, so a truncated or corrupted
// transfer is rejected, not trusted.
func (d *Dir) Encode(s *Snapshot) []byte          { return Encode(s) }
func (d *Dir) Decode(b []byte) (*Snapshot, error) { return Decode(b) }

// list returns the steps of rank's checkpoint files, ascending and whether
// or not they load, and the temp files a crash mid-Save left behind for it.
func (d *Dir) list(rank int) (steps []int64, temps []string, err error) {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: listing %s: %w", d.root, err)
	}
	prefix := fmt.Sprintf("rank%03d-step", rank)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) {
			continue
		}
		var step int64
		if _, err := fmt.Sscanf(name[len(prefix):], "%012d.ckpt", &step); err != nil {
			continue
		}
		// Sscanf does not anchor the end of the name, so a stale temp file
		// (rank001-step…042.ckpt.tmp367812345) parses as a step too; only an
		// exact reconstruction is a checkpoint.
		if filepath.Join(d.root, name) == d.Path(rank, step) {
			steps = append(steps, step)
		} else if strings.Contains(name, ".ckpt.tmp") {
			temps = append(temps, name)
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	return steps, temps, nil
}

// prune removes rank's checkpoints beyond Keep, oldest first, and the stale
// temps a previous incarnation of the rank left behind. It runs right after
// one of the rank's own saves completed; saves are synchronous per rank, so
// none of its temps can be in flight, and other ranks' files are untouched.
func (d *Dir) prune(rank int) error {
	keep := d.Keep
	if keep <= 0 {
		keep = DefaultKeep
	}
	steps, temps, err := d.list(rank)
	if err != nil {
		return err
	}
	for _, name := range temps {
		if err := os.Remove(filepath.Join(d.root, name)); err != nil {
			return fmt.Errorf("ckpt: sweeping stale temp %s: %w", name, err)
		}
	}
	for len(steps) > keep {
		if err := os.Remove(d.Path(rank, steps[0])); err != nil {
			return fmt.Errorf("ckpt: pruning: %w", err)
		}
		steps = steps[1:]
	}
	return nil
}
