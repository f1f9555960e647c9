package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// The flight recorder's look-back window and its per-process dump limit.
const (
	flightWindow   = 10 * time.Second
	maxFlightDumps = 32
)

// FlightDump is the postmortem artifact written when a fault fires: the last
// window of ring events, the registry snapshot, and a goroutine profile —
// everything needed to reconstruct what every rank (in-process) or this rank
// (multi-process) was doing when the fault hit.
type FlightDump struct {
	Reason     string    `json:"reason"`
	Error      string    `json:"error,omitempty"`
	Time       string    `json:"time"`
	WindowNs   int64     `json:"window_ns"`
	Generation int64     `json:"generation"`
	Events     []Event   `json:"events"`
	Telemetry  *Snapshot `json:"telemetry,omitempty"`
	Goroutines string    `json:"goroutines,omitempty"`
}

// ConfigureFlight arms the flight recorder: dumps go to dir. An empty dir
// disarms it.
func (t *T) ConfigureFlight(dir string) {
	if t == nil {
		return
	}
	if dir == "" {
		t.flightDir.Store(nil)
		return
	}
	t.flightDir.Store(&dir)
}

// Flight freezes the trailing event window and writes a FLIGHT_*.json dump;
// reason is a fixed identifier (it names the file).
// It is safe (and intended) to call from error paths on any goroutine: it is
// a no-op unless ConfigureFlight armed a directory, rate-limited to one dump
// per second and maxFlightDumps per process so an abort storm (every rank's
// every op failing at once) produces one readable artifact, not thousands.
// Returns the path written, or "" when suppressed.
func (t *T) Flight(reason string, cause error) string {
	if t == nil {
		return ""
	}
	dirp := t.flightDir.Load()
	if dirp == nil {
		return ""
	}
	now := time.Now().UnixNano()
	last := t.lastDump.Load()
	if last != 0 && now-last < int64(time.Second) {
		return ""
	}
	if !t.lastDump.CompareAndSwap(last, now) {
		return "" // another goroutine is dumping
	}
	seq := t.dumps.Add(1)
	if seq > maxFlightDumps {
		return ""
	}

	t.dumpMu.Lock()
	defer t.dumpMu.Unlock()

	all, _ := t.Events(0)
	cut := now - int64(flightWindow)
	evs := all[:0]
	for _, ev := range all {
		if ev.T0Ns >= cut {
			evs = append(evs, ev)
		}
	}

	var gorout bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		p.WriteTo(&gorout, 1)
	}

	snap := t.Snapshot()
	dump := FlightDump{
		Reason:     reason,
		Time:       time.Unix(0, now).UTC().Format(time.RFC3339Nano),
		WindowNs:   int64(flightWindow),
		Generation: t.gen.Load(),
		Events:     evs,
		Telemetry:  &snap,
		Goroutines: gorout.String(),
	}
	if cause != nil {
		dump.Error = cause.Error()
	}

	path := filepath.Join(*dirp, fmt.Sprintf("FLIGHT_%03d_%s.json", seq, reason))
	b, err := json.MarshalIndent(&dump, "", "  ")
	if err != nil {
		return ""
	}
	b = append(b, '\n')
	if err := os.MkdirAll(*dirp, 0o755); err != nil {
		return ""
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return ""
	}
	return path
}
