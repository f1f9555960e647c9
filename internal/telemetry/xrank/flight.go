package xrank

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// FlightDump is the postmortem artifact written when a fault fires: the last
// window of ring events, the process-wide telemetry snapshot, and a goroutine
// profile — everything needed to reconstruct what every rank (in-process) or
// this rank (multi-process) was doing when the fault hit.
type FlightDump struct {
	Reason     string              `json:"reason"`
	Error      string              `json:"error,omitempty"`
	Time       string              `json:"time"`
	WindowNs   int64               `json:"window_ns"`
	Generation int64               `json:"generation"`
	Events     []Event             `json:"events"`
	Telemetry  *telemetry.Snapshot `json:"telemetry,omitempty"`
	Goroutines string              `json:"goroutines,omitempty"`
}

// ConfigureFlight arms the flight recorder: dumps go to dir, covering the
// trailing window of events, with at most maxDumps files per process
// (maxDumps <= 0 keeps the current limit; window <= 0 keeps the current
// window). An empty dir disarms it.
func (r *Recorder) ConfigureFlight(dir string, window time.Duration, maxDumps int) {
	if dir == "" {
		r.flightDir.Store(nil)
		return
	}
	d := dir
	r.flightDir.Store(&d)
	if window > 0 {
		r.windowNs.Store(int64(window))
	}
	if maxDumps > 0 {
		r.maxDumps.Store(int64(maxDumps))
	}
}

// Flight freezes the trailing event window and writes a FLIGHT_*.json dump.
// It is safe (and intended) to call from error paths on any goroutine: it is
// a no-op unless ConfigureFlight armed a directory, rate-limited to one dump
// per second and maxDumps per process so an abort storm (every rank's every
// op failing at once) produces one readable artifact, not thousands. Returns
// the path written, or "" when suppressed.
func (r *Recorder) Flight(reason string, cause error) string {
	dirp := r.flightDir.Load()
	if dirp == nil {
		return ""
	}
	now := time.Now().UnixNano()
	last := r.lastDump.Load()
	if last != 0 && now-last < int64(time.Second) {
		return ""
	}
	if !r.lastDump.CompareAndSwap(last, now) {
		return "" // another goroutine is dumping
	}
	seq := r.dumps.Add(1)
	if seq > r.maxDumps.Load() {
		return ""
	}

	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()

	window := r.windowNs.Load()
	all, _ := r.Events(0)
	cut := now - window
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

	snap := telemetry.Default.Snapshot()
	dump := FlightDump{
		Reason:     reason,
		Time:       time.Unix(0, now).UTC().Format(time.RFC3339Nano),
		WindowNs:   window,
		Generation: r.gen.Load(),
		Events:     evs,
		Telemetry:  &snap,
		Goroutines: gorout.String(),
	}
	if cause != nil {
		dump.Error = cause.Error()
	}

	path := filepath.Join(*dirp, fmt.Sprintf("FLIGHT_%03d_%s.json", seq, sanitizeReason(reason)))
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

func sanitizeReason(s string) string {
	if s == "" {
		return "fault"
	}
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_':
			return c
		default:
			return '_'
		}
	}, s)
}
