package grace

import (
	"fmt"
	"sort"
	"sync"
)

// Options carries the tunable parameters compressor factories understand.
// Each method reads the fields relevant to it and ignores the rest; zero
// values select the method's documented defaults.
type Options struct {
	// Ratio is the sparsification ratio k/d (Top-k, Random-k, DGC, Adaptive).
	Ratio float64
	// Levels is the quantization level count s (QSGD) or bucket count
	// (SketchML).
	Levels int
	// Rank is the factorization rank r (PowerSGD, ATOMO).
	Rank int
	// Threshold is the fixed threshold τ (Threshold-v, 1-bit SGD).
	Threshold float64
	// Momentum is the momentum coefficient for methods with built-in
	// momentum (SIGNUM, DGC).
	Momentum float64
	// Seed seeds the method's private RNG (randomized compressors).
	Seed uint64
}

// Factory constructs a fresh per-worker compressor instance.
type Factory func(o Options) (Compressor, error)

// Meta is one row of the paper's Table I: a method's taxonomy entry plus its
// factory.
type Meta struct {
	// Name is the registry key, e.g. "topk".
	Name string
	// Class is one of "baseline", "quantization", "sparsification",
	// "hybrid", "lowrank".
	Class string
	// Output describes ‖g̃‖0: "‖g‖0", "k", "adaptive" or "(m+L)r".
	Output string
	// Nature is "deterministic" or "randomized" (the paper's Nature of Q).
	Nature string
	// DefaultEF reports whether the paper runs the method with framework
	// error feedback on (Table I's EF-On column).
	DefaultEF bool
	// BuiltinEF reports whether the method manages its own memory, in which
	// case framework EF must stay off (DGC's local gradient accumulation,
	// PowerSGD's feedback on the allreduced factors).
	BuiltinEF bool
	// Reference cites the original paper.
	Reference string
	// New builds an instance.
	New Factory
}

var (
	regMu    sync.RWMutex
	registry = map[string]Meta{}
)

// Register adds a method to the registry. Compressor packages call it from
// init(); registering a duplicate name panics to surface wiring mistakes
// early.
func Register(m Meta) {
	regMu.Lock()
	defer regMu.Unlock()
	if m.Name == "" || m.New == nil {
		panic("grace: Register requires a name and factory")
	}
	if _, dup := registry[m.Name]; dup {
		panic(fmt.Sprintf("grace: duplicate compressor %q", m.Name))
	}
	registry[m.Name] = m
}

// Lookup returns a method's metadata.
func Lookup(name string) (Meta, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	m, ok := registry[name]
	if !ok {
		return Meta{}, fmt.Errorf("grace: unknown compressor %q (have %v)", name, namesLocked())
	}
	return m, nil
}

// New constructs a compressor by name. Configuration is given as functional
// options (WithRatio, WithLevels, ...); a literal Options struct is itself an
// Option, so both styles compose:
//
//	grace.New("topk", grace.WithRatio(0.01))
//	grace.New("qsgd", grace.Options{Levels: 64}, grace.WithSeed(7))
func New(name string, opts ...Option) (Compressor, error) {
	m, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return m.New(BuildOptions(opts...))
}

// Names lists registered methods in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns every registered Meta sorted by (class, name); this is the
// data behind the Table I reproduction.
func All() []Meta {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Meta, 0, len(registry))
	for _, m := range registry {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return classOrder(out[i].Class) < classOrder(out[j].Class)
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func classOrder(c string) int {
	switch c {
	case "baseline":
		return 0
	case "quantization":
		return 1
	case "sparsification":
		return 2
	case "hybrid":
		return 3
	case "lowrank":
		return 4
	default:
		return 5
	}
}
