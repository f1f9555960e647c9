package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

// Tracer streams Chrome trace_event JSON ("[ {event}, {event}, ... ]") to a
// writer. The output loads in chrome://tracing and https://ui.perfetto.dev:
// each rank renders as a process, with the driver, codec lanes, wire
// send/recv, and the steps, collectives and faults of the event ring as
// threads (see the TID* constants).
//
// Spans are "X" (complete) records emitted at span end; ring events are "X"
// records (steps, collectives) or "i" instants (incidents). Timestamps are
// microseconds relative to the tracer's creation (or, for Replay, the
// stream's earliest event), keeping numbers small and the trace
// self-aligned. All methods are safe for concurrent use; one mutex
// serializes writers, which is fine at trace-enabled (diagnostic) rates.
type Tracer struct {
	mu      sync.Mutex
	w       *bufio.Writer
	c       io.Closer
	base    int64 // unix ns that renders as ts 0
	first   bool
	named   map[int64]bool // pid<<8|tid pairs already given thread_name metadata
	scratch []byte
	args    []byte
	err     error
}

// NewTracer wraps w in a Tracer. If w is an io.Closer, Close closes it after
// terminating the JSON array.
func NewTracer(w io.Writer) *Tracer {
	tr := &Tracer{
		w:       bufio.NewWriterSize(w, 64<<10),
		base:    time.Now().UnixNano(),
		first:   true,
		named:   make(map[int64]bool),
		scratch: make([]byte, 0, 256),
	}
	if c, ok := w.(io.Closer); ok {
		tr.c = c
	}
	tr.w.WriteString("[\n")
	return tr
}

// CreateTrace opens path for writing and returns a Tracer over it.
func CreateTrace(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewTracer(f), nil
}

// Close terminates the JSON array, flushes, and closes the underlying writer
// when it is closable. The file stays Chrome-loadable even if the process
// dies before Close — trace viewers tolerate an unterminated array — but a
// clean Close yields strictly valid JSON.
func (tr *Tracer) Close() error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.w.WriteString("\n]\n")
	if err := tr.w.Flush(); err != nil && tr.err == nil {
		tr.err = err
	}
	if tr.c != nil {
		if err := tr.c.Close(); err != nil && tr.err == nil {
			tr.err = err
		}
	}
	return tr.err
}

func trackName(tid int) string {
	switch tid {
	case TIDDriver:
		return "driver"
	case tidSteps:
		return "steps"
	case tidOps:
		return "collectives"
	case tidFaults:
		return "faults"
	case TIDWireSend:
		return "wire send"
	case TIDWireRecv:
		return "wire recv"
	default:
		return "lane " + strconv.Itoa(tid-1)
	}
}

// sep writes the record separator (everything after the first record is
// preceded by ",\n"). Caller holds mu.
func (tr *Tracer) sep() {
	if tr.first {
		tr.first = false
		return
	}
	tr.w.WriteString(",\n")
}

// meta emits process_name/thread_name metadata the first time a (pid, tid)
// track appears, so viewers show "rank 0 / lane 2" instead of bare numbers.
// Caller holds mu.
func (tr *Tracer) meta(pid, tid int) {
	key := int64(pid)<<8 | int64(tid&0xff)
	if tr.named[key] {
		return
	}
	tr.named[key] = true
	tr.sep()
	fmt.Fprintf(tr.w, `{"ph":"M","name":"process_name","pid":%d,"args":{"name":"rank %d"}},`+"\n"+
		`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%q}}`, pid, pid, pid, tid, trackName(tid))
}

// appendMicros renders a nanosecond count as microseconds with 3 decimals.
func appendMicros(b []byte, ns int64) []byte {
	if ns < 0 {
		ns = 0
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	b = append(b, '.')
	b = append(b, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return b
}

// complete emits a ph:"X" record for a finished span.
func (tr *Tracer) complete(name string, pid, tid int, start time.Time, dur time.Duration, detail string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	a := tr.args[:0]
	if detail != "" {
		a = append(a, `"detail":`...)
		a = strconv.AppendQuote(a, detail)
	}
	tr.emit("X", name, pid, tid, start.UnixNano(), dur.Nanoseconds(), a)
}

// event renders one ring event on its rank's steps, collectives or faults
// track: steps and ops as ph:"X" records, incidents as ph:"i" instants.
func (tr *Tracer) event(ev Event) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	a := appendArg(tr.args[:0], "seq", ev.Seq)
	a = appendArg(a, "gen", ev.Gen)
	pid := int(ev.Rank)
	switch ev.Kind {
	case KindStep:
		a = appendArg(a, "exch_bytes", ev.Aux)
		tr.emit("X", "step "+strconv.FormatInt(ev.Seq, 10), pid, tidSteps, ev.T0Ns, ev.DurNs, a)
	case KindOp:
		a = appendArg(a, "bytes", ev.Bytes)
		tr.emit("X", OpName(ev.Op), pid, tidOps, ev.T0Ns, ev.DurNs, a)
	case KindFault:
		a = appendArg(a, "subject", ev.Bytes)
		tr.emit("i", "fault:"+FaultName(ev.Aux)+":"+OpName(ev.Op), pid, tidFaults, ev.T0Ns, 0, a)
	}
}

// Replay renders a finished event stream (package xrank's merged cross-rank
// windows), re-basing the tracer's clock on the stream's earliest event so
// its timestamps start at zero. Call it on a fresh tracer.
func (tr *Tracer) Replay(evs []Event) {
	tr.mu.Lock()
	for i, ev := range evs {
		if i == 0 || ev.T0Ns < tr.base {
			tr.base = ev.T0Ns
		}
	}
	tr.mu.Unlock()
	for _, ev := range evs {
		tr.event(ev)
	}
}

func appendArg(b []byte, key string, v int64) []byte {
	if len(b) > 0 {
		b = append(b, ',')
	}
	b = strconv.AppendQuote(b, key)
	b = append(b, ':')
	return strconv.AppendInt(b, v, 10)
}

// emit writes one record: ph, name, pid/tid, ts (and dur for "X", thread
// scope for "i"), and args when a is non-empty. Caller holds mu.
func (tr *Tracer) emit(ph, name string, pid, tid int, tsNs, durNs int64, a []byte) {
	tr.meta(pid, tid)
	b := append(tr.scratch[:0], `{"ph":"`...)
	b = append(b, ph...)
	b = append(b, `","name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = appendMicros(b, tsNs-tr.base)
	if ph == "X" {
		b = append(b, `,"dur":`...)
		b = appendMicros(b, durNs)
	} else {
		b = append(b, `,"s":"t"`...)
	}
	if len(a) > 0 {
		b = append(b, `,"args":{`...)
		b = append(b, a...)
		b = append(b, '}')
	}
	b = append(b, '}')
	tr.sep()
	if _, err := tr.w.Write(b); err != nil && tr.err == nil {
		tr.err = err
	}
	tr.scratch, tr.args = b[:0], a[:0]
}
