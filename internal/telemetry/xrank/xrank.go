// Package xrank is the cross-rank half of the observability plane: it merges
// every rank's telemetry events and analyses the merge. Recording is
// telemetry.T's (its event ring, enable gate and flight recorder); xrank adds
// the window codec, an Aggregator that piggybacks event windows on the
// existing collective plane (AllgatherBytes — no extra connections), the
// per-step skew analysis, and rank 0's merged Chrome trace and skew
// artifacts.
//
// Straggler attribution rests on where the events are recorded. An injected
// delay sleeps *before* the inner collective runs, so at the engine level
// every rank's op duration looks the same (the delayed rank sleeps, its peers
// wait in the rendezvous). Only at the transport rendezvous is the asymmetry
// visible — the delayed rank arrives last and therefore waits the LEAST — so
// comm records op events around the rendezvous and the straggler for a step
// is the rank with the minimum summed collective wait (see ComputeSkew).
package xrank

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/telemetry"
)

// Window wire format: a magic/version byte pair, the sender's rank and event
// count as uvarints, then each event as 9 varints. Compact enough to
// piggyback on the collective plane at aggregation cadence without moving
// the wire-volume needle, and decoded defensively (count capped against the
// buffer length) because in multi-process runs it crosses the network.
const (
	windowMagic   = 0x78 // 'x'
	windowVersion = 1
	// maxWindowEvents bounds what a decoder will allocate for one window,
	// independent of the (hostile) declared count.
	maxWindowEvents = 1 << 20
)

// ErrBadWindow reports a malformed or truncated window buffer.
var ErrBadWindow = errors.New("xrank: malformed event window")

// EncodeWindow serializes rank's events into the window wire format.
func EncodeWindow(rank int, evs []telemetry.Event) []byte {
	buf := make([]byte, 0, 2+10+len(evs)*20)
	buf = append(buf, windowMagic, windowVersion)
	buf = binary.AppendUvarint(buf, uint64(rank))
	buf = binary.AppendUvarint(buf, uint64(len(evs)))
	for _, ev := range evs {
		for _, v := range [...]int64{ev.Kind, ev.Rank, ev.Op, ev.Seq, ev.Gen, ev.T0Ns, ev.DurNs, ev.Aux, ev.Bytes} {
			buf = binary.AppendVarint(buf, v)
		}
	}
	return buf
}

// DecodeWindow parses a window buffer. It never trusts the declared count:
// allocation is bounded by both maxWindowEvents and what the remaining bytes
// could possibly hold (≥ 9 bytes per event).
func DecodeWindow(b []byte) (rank int, evs []telemetry.Event, err error) {
	if len(b) < 2 || b[0] != windowMagic || b[1] != windowVersion {
		return 0, nil, ErrBadWindow
	}
	rest := b[2:]
	r, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, nil, ErrBadWindow
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, nil, ErrBadWindow
	}
	rest = rest[n:]
	if count > maxWindowEvents || count > uint64(len(rest)) {
		return 0, nil, fmt.Errorf("%w: count %d exceeds buffer", ErrBadWindow, count)
	}
	evs = make([]telemetry.Event, 0, count)
	for i := uint64(0); i < count; i++ {
		var ev telemetry.Event
		fields := [...]*int64{&ev.Kind, &ev.Rank, &ev.Op, &ev.Seq, &ev.Gen,
			&ev.T0Ns, &ev.DurNs, &ev.Aux, &ev.Bytes}
		for _, f := range fields {
			v, n := binary.Varint(rest)
			if n <= 0 {
				return 0, nil, ErrBadWindow
			}
			*f = v
			rest = rest[n:]
		}
		evs = append(evs, ev)
	}
	return int(r), evs, nil
}

// Gatherer is the slice of the collective plane the aggregator needs. Any
// comm.Collective satisfies it; taking the narrow structural interface keeps
// xrank below comm in the import graph.
type Gatherer interface {
	AllgatherBytes(b []byte) ([][]byte, error)
}

// Aggregator cuts this rank's event windows and merges all ranks' windows on
// rank 0 via a piggybacked AllgatherBytes on the caller's existing collective
// handle — no extra connections, one extra lockstep op per cadence tick.
// Exchange must therefore be called at the same step on every rank (the
// trainer calls it at globalStep % every == 0, which is lockstep by
// construction).
type Aggregator struct {
	tel        *telemetry.T
	rank, size int
	since      int64
	merged     []telemetry.Event // rank 0 only
}

// NewAggregator returns an aggregator for this rank over tel's event ring.
func NewAggregator(tel *telemetry.T, rank, size int) *Aggregator {
	return &Aggregator{tel: tel, rank: rank, size: size}
}

// Exchange cuts the window of this rank's events since the previous call and
// allgathers it; rank 0 accumulates the merged stream. Collective — every
// rank must call it at the same point in the op sequence.
func (a *Aggregator) Exchange(g Gatherer) error {
	all, next := a.tel.Events(a.since)
	a.since = next
	own := all[:0]
	for _, ev := range all {
		if int(ev.Rank) == a.rank {
			own = append(own, ev)
		}
	}
	parts, err := g.AllgatherBytes(EncodeWindow(a.rank, own))
	if err != nil {
		return err
	}
	if a.rank != 0 {
		return nil
	}
	for _, p := range parts {
		_, evs, derr := DecodeWindow(p)
		if derr != nil {
			return derr
		}
		a.merged = append(a.merged, evs...)
	}
	return nil
}

// Merged returns rank 0's accumulated cross-rank event stream (nil on other
// ranks).
func (a *Aggregator) Merged() []telemetry.Event { return a.merged }

// SkewRow is one step's cross-rank imbalance verdict. WaitNs[r] is rank r's
// total time blocked in transport rendezvous during the step; the straggler
// is the rank that waited LEAST (it arrived last, everyone else waited for
// it); SkewNs is max−min.
type SkewRow struct {
	Step      int64   `json:"step"`
	Straggler int     `json:"straggler"`
	WaitNs    []int64 `json:"wait_ns"`
	SkewNs    int64   `json:"skew_ns"`
	Ops       int     `json:"ops"`
}

// ComputeSkew derives per-step skew rows from a merged event stream.
//
// Assignment of transport ops to engine steps is done per rank against that
// rank's own step windows (KindStep events give [t0, t0+dur) per step), so
// it needs no cross-rank clock alignment: a rank's ops and its step windows
// share one clock. Steps observed by fewer than size ranks (partial windows
// at run edges, heal intervals) are dropped.
func ComputeSkew(evs []telemetry.Event, size int) []SkewRow {
	if size <= 0 {
		return nil
	}
	type window struct {
		step   int64
		t0, t1 int64
	}
	wins := make([][]window, size)
	for _, ev := range evs {
		if ev.Kind != telemetry.KindStep || ev.Rank < 0 || ev.Rank >= int64(size) {
			continue
		}
		wins[ev.Rank] = append(wins[ev.Rank], window{ev.Seq, ev.T0Ns, ev.T0Ns + ev.DurNs})
	}
	for r := range wins {
		sort.Slice(wins[r], func(i, j int) bool { return wins[r][i].t0 < wins[r][j].t0 })
	}

	type cell struct {
		waitNs int64
		ops    int
	}
	steps := map[int64][]cell{}
	for _, ev := range evs {
		if ev.Kind != telemetry.KindOp || ev.Rank < 0 || ev.Rank >= int64(size) {
			continue
		}
		if ev.Op < telemetry.OpAllreduce || ev.Op > telemetry.OpBarrier {
			continue // only rendezvous collectives witness the skew
		}
		w := wins[ev.Rank]
		i := sort.Search(len(w), func(i int) bool { return w[i].t0 > ev.T0Ns })
		if i == 0 {
			continue
		}
		win := w[i-1]
		if ev.T0Ns >= win.t1 {
			continue // between steps (e.g. the aggregation op itself)
		}
		row, ok := steps[win.step]
		if !ok {
			row = make([]cell, size)
			steps[win.step] = row
		}
		row[ev.Rank].waitNs += ev.DurNs
		row[ev.Rank].ops++
	}

	var out []SkewRow
	for step, row := range steps {
		complete := true
		for _, c := range row {
			if c.ops == 0 {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		sr := SkewRow{Step: step, WaitNs: make([]int64, size)}
		minW, maxW := row[0].waitNs, row[0].waitNs
		for r, c := range row {
			sr.WaitNs[r] = c.waitNs
			sr.Ops += c.ops
			if c.waitNs < minW {
				minW = c.waitNs
				sr.Straggler = r
			}
			if c.waitNs > maxW {
				maxW = c.waitNs
			}
		}
		sr.SkewNs = maxW - minW
		out = append(out, sr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// StragglerCounts tallies, per rank, how many steps attributed it as the
// straggler.
func StragglerCounts(rows []SkewRow, size int) []int64 {
	counts := make([]int64, size)
	for _, r := range rows {
		if r.Straggler >= 0 && r.Straggler < size {
			counts[r.Straggler]++
		}
	}
	return counts
}

// Artifact filenames written by WriteArtifacts into an artifacts directory.
const (
	TraceFile = "XRANK_trace.json"
	SkewFile  = "XRANK_skew.json"
)

// WriteTrace writes the merged cross-rank event stream as a Chrome trace,
// rendered by the same telemetry.Tracer a live -trace run uses: each rank is
// a process with steps, collectives and faults threads. Timestamps are
// microseconds relative to the earliest event (per-rank clocks in one
// process share a clock anyway; across processes the alignment is cosmetic —
// skew analytics never compare raw timestamps across ranks).
func WriteTrace(path string, evs []telemetry.Event) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tr, err := telemetry.CreateTrace(path)
	if err != nil {
		return err
	}
	tr.Replay(evs)
	return tr.Close()
}

// SkewSummary is the persisted form of the skew analysis: per-step rows plus
// the per-rank straggler tallies gracestat renders as the "top stragglers"
// table.
type SkewSummary struct {
	Size           int       `json:"size"`
	Steps          int       `json:"steps"`
	Rows           []SkewRow `json:"rows"`
	StragglerSteps []int64   `json:"straggler_steps_per_rank"`
}

// WriteArtifacts writes rank 0's merged trace and skew summary into dir.
// No-op (nil) on other ranks, so every rank may call it unconditionally.
func (a *Aggregator) WriteArtifacts(dir string) error {
	if a.rank != 0 {
		return nil
	}
	if err := WriteTrace(filepath.Join(dir, TraceFile), a.merged); err != nil {
		return err
	}
	rows := ComputeSkew(a.merged, a.size)
	b, err := json.MarshalIndent(&SkewSummary{Size: a.size, Steps: len(rows), Rows: rows,
		StragglerSteps: StragglerCounts(rows, a.size)}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, SkewFile), append(b, '\n'), 0o644)
}
