package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/grace"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// layer identifies one traced call boundary. The name before the dot is the
// module the call enters; it is also the Chrome trace category and track.
type layer uint8

const (
	lTrainStep layer = iota // one RunWorker iteration, OnStep to OnStep
	lGraceStep              // Engine.Step (training: forward/backward end to optimizer start)
	lAllreduce
	lAllgather
	lBroadcast
	lBarrier
	lCompress
	lDecompress
	lForwardBackward
	lBatch
	lOptimStep
	numLayers
)

var layerNames = [numLayers]string{
	"train.step", "grace.step", "comm.allreduce", "comm.allgather", "comm.broadcast",
	"comm.barrier", "compress.compress", "compress.decompress",
	"nn.forward_backward", "data.batch", "optim.step",
}

// layerTrack is the Chrome trace tid: spans of one track never overlap, so
// the viewer nests them correctly (codec lanes run beside the comm driver).
var layerTrack = [numLayers]int{0, 0, 1, 1, 1, 1, 2, 2, 3, 4, 5}

// spanSteps is how many leading steps keep their full spans; totals cover
// every step.
const spanSteps = 200

// span is one recorded call. Times are nanoseconds since the recorder's
// epoch, which every rank shares, so spans of different ranks are comparable.
type span struct {
	layer      layer
	step       int32
	parent     int32 // index into the same rank's spans, -1 for a root
	start, end int64
}

type interval struct{ lo, hi int64 }

// rankRec accumulates one rank's spans and counts. The engine's codec lane
// and comm driver record concurrently, hence the mutex; it is never
// contended across ranks.
type rankRec struct {
	mu    sync.Mutex
	rank  int
	epoch time.Time
	model simnet.Cluster
	recState
}

// recState is everything reset() clears between the warm-up and the
// measured steps.
type recState struct {
	spans  []span
	step   int32 // current step id
	parent int32 // open parent span, -1 for none
	ns     [numLayers]int64
	calls  [numLayers]int64

	// kids are the leaf intervals recorded under the open grace.step span;
	// its self time is its duration minus their union.
	kids       []interval
	graceStart int64
	graceOpen  bool
	selfNs     int64

	entries        []int64 // entry time of every collective op, in issue order
	failedOps      int64
	sent, recv     int64
	allreduceBytes int64
	modeledNs      [numLayers]int64

	rawBytes, payloadBytes int64
}

func newRankRec(rank int, epoch time.Time) *rankRec {
	return &rankRec{rank: rank, epoch: epoch, model: simnet.NewCluster(simnet.TCP10G, ranks),
		recState: recState{parent: -1}}
}

// reset drops everything recorded so far and sizes the op log for the
// measured steps, so growing it does not show up as tracing overhead.
func (r *rankRec) reset(ops int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recState = recState{parent: -1, spans: r.spans[:0], kids: r.kids[:0], entries: make([]int64, 0, ops)}
}

func (r *rankRec) setStep(step int) {
	r.mu.Lock()
	r.step = int32(step)
	r.mu.Unlock()
}

func (r *rankRec) now() int64 { return int64(time.Since(r.epoch)) }

// open starts a parent span (train.step or grace.step); close ends it.
// Leaves recorded in between name it as their parent.
func (r *rankRec) open(l layer) (id int32, start int64) {
	start = r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if l == lGraceStep {
		r.kids = r.kids[:0]
		r.graceStart = start
		r.graceOpen = true
	}
	id = -1
	if r.step < spanSteps {
		id = int32(len(r.spans))
		r.spans = append(r.spans, span{layer: l, step: r.step, parent: r.parent, start: start})
		r.parent = id
	}
	return id, start
}

func (r *rankRec) close(l layer, id int32, start int64) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ns[l] += end - start
	r.calls[l]++
	if id >= 0 {
		r.spans[id].end = end
		r.parent = r.spans[id].parent
	}
	if l == lGraceStep {
		r.graceOpen = false
		r.selfNs += (end - start) - union(r.kids)
	}
}

// leaf records one completed call under the open parent.
func (r *rankRec) leaf(l layer, start, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ns[l] += end - start
	r.calls[l]++
	if r.graceOpen && start >= r.graceStart {
		r.kids = append(r.kids, interval{start, end})
	}
	if r.step < spanSteps {
		r.spans = append(r.spans, span{layer: l, step: r.step, parent: r.parent, start: start, end: end})
	}
}

// union is the total length covered by the intervals; it sorts them in place.
func union(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total, hi int64
	for _, v := range iv {
		if v.lo > hi {
			total += v.hi - v.lo
			hi = v.hi
		} else if v.hi > hi {
			total += v.hi - hi
			hi = v.hi
		}
	}
	return total
}

// recorder is the traced run's state: one rankRec per rank on a shared clock.
type recorder struct {
	ranks [ranks]*rankRec
}

func newRecorder() *recorder {
	rec := &recorder{}
	epoch := time.Now()
	for r := range rec.ranks {
		rec.ranks[r] = newRankRec(r, epoch)
	}
	return rec
}

// reset drops what the warm-up recorded and sizes every rank's op log for
// the measured steps from the warm-up's ops per step (a hint: training
// rounds its steps up to whole epochs and the log then grows by append).
func (rec *recorder) reset(warmSteps, steps int) {
	opsPerStep := len(rec.ranks[0].entries)/warmSteps + 1
	for _, r := range rec.ranks {
		r.reset(opsPerStep * steps)
	}
}

// entrySkewNs sums, over every collective op, the gap between the first and
// the last rank entering it: time the op spent waiting for a peer.
func (rec *recorder) entrySkewNs() int64 {
	a, b := rec.ranks[0].entries, rec.ranks[1].entries
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var total int64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total
}

// writeChrome writes the kept spans of every rank as Chrome trace_event JSON
// (load in chrome://tracing or ui.perfetto.dev): pid = rank, tid = layer
// track, args carry the step id and the span/parent ids within the rank.
func (rec *recorder) writeChrome(dir, workload string) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var events []event
	for _, r := range rec.ranks {
		for id, s := range r.spans {
			name := layerNames[s.layer]
			cat, _, _ := strings.Cut(name, ".")
			events = append(events, event{Name: name, Cat: cat, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: r.rank, Tid: layerTrack[s.layer],
				Args: map[string]int{"step": int(s.step), "id": id, "parent": int(s.parent)}})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}

// tracedColl wraps a Collective at the comm boundary. Plain methods call the
// wrapped plain methods and Ctx methods go through comm's dispatch helpers,
// so a traced run enters the transport exactly where an untraced one does.
type tracedColl struct {
	inner comm.Collective
	r     *rankRec
}

var (
	_ comm.ContextCollective = (*tracedColl)(nil)
	_ comm.Unwrapper         = (*tracedColl)(nil)
)

func (c *tracedColl) Rank() int               { return c.inner.Rank() }
func (c *tracedColl) Size() int               { return c.inner.Size() }
func (c *tracedColl) Unwrap() comm.Collective { return c.inner }

// op times one collective call. sent/recv follow comm.Meter: the logical
// payload this worker contributes and the peer payload it collects.
func (c *tracedColl) op(l layer, sent int, call func() (recv int, modeled time.Duration, err error)) error {
	start := c.r.now()
	c.r.entries = append(c.r.entries, start)
	recv, modeled, err := call()
	end := c.r.now()
	c.r.leaf(l, start, end)
	c.r.sent += int64(sent)
	if err != nil {
		c.r.failedOps++
		return err
	}
	c.r.recv += int64(recv)
	c.r.modeledNs[l] += int64(modeled)
	return nil
}

func (c *tracedColl) allreduce(x []float32, call func() error) error {
	return c.op(lAllreduce, len(x)*4, func() (int, time.Duration, error) {
		if err := call(); err != nil {
			return 0, 0, err
		}
		c.r.allreduceBytes += int64(len(x) * 4)
		return len(x) * 4, c.r.model.AllreduceTime(len(x) * 4), nil
	})
}

func (c *tracedColl) allgather(b []byte, call func() ([][]byte, error)) (all [][]byte, err error) {
	err = c.op(lAllgather, len(b), func() (int, time.Duration, error) {
		if all, err = call(); err != nil {
			return 0, 0, err
		}
		var recv int
		var sizes [ranks]int // the group never resizes here, so no per-op slice
		for i, p := range all {
			sizes[i] = len(p)
			if i != c.inner.Rank() {
				recv += len(p)
			}
		}
		return recv, c.r.model.AllgatherTime(sizes[:]), nil
	})
	return all, err
}

func (c *tracedColl) broadcast(b []byte, root int, call func() ([]byte, error)) (out []byte, err error) {
	sent := 0
	if c.inner.Rank() == root {
		sent = len(b)
	}
	err = c.op(lBroadcast, sent, func() (int, time.Duration, error) {
		if out, err = call(); err != nil || c.inner.Rank() == root {
			return 0, 0, err
		}
		return len(out), 0, nil
	})
	return out, err
}

func (c *tracedColl) barrier(call func() error) error {
	return c.op(lBarrier, 0, func() (int, time.Duration, error) { return 0, 0, call() })
}

func (c *tracedColl) AllreduceF32(x []float32) error {
	return c.allreduce(x, func() error { return c.inner.AllreduceF32(x) })
}

func (c *tracedColl) AllreduceF32Ctx(ctx context.Context, x []float32) error {
	return c.allreduce(x, func() error { return comm.AllreduceF32(ctx, c.inner, x) })
}

func (c *tracedColl) AllgatherBytes(b []byte) ([][]byte, error) {
	return c.allgather(b, func() ([][]byte, error) { return c.inner.AllgatherBytes(b) })
}

func (c *tracedColl) AllgatherBytesCtx(ctx context.Context, b []byte) ([][]byte, error) {
	return c.allgather(b, func() ([][]byte, error) { return comm.AllgatherBytes(ctx, c.inner, b) })
}

func (c *tracedColl) BroadcastBytes(b []byte, root int) ([]byte, error) {
	return c.broadcast(b, root, func() ([]byte, error) { return c.inner.BroadcastBytes(b, root) })
}

func (c *tracedColl) BroadcastBytesCtx(ctx context.Context, b []byte, root int) ([]byte, error) {
	return c.broadcast(b, root, func() ([]byte, error) { return comm.BroadcastBytes(ctx, c.inner, b, root) })
}

func (c *tracedColl) Barrier() error { return c.barrier(c.inner.Barrier) }

func (c *tracedColl) BarrierCtx(ctx context.Context) error {
	return c.barrier(func() error { return comm.Barrier(ctx, c.inner) })
}

// tracedComp is the base Compressor wrapper; the optional capabilities are
// separate types so traceCompressor can expose exactly the set the wrapped
// compressor has, and the engine keeps dispatching the way it would without
// the wrapper.
type tracedComp struct {
	inner grace.Compressor
	r     *rankRec
}

func (c *tracedComp) Name() string             { return c.inner.Name() }
func (c *tracedComp) Strategy() grace.Strategy { return c.inner.Strategy() }

func (c *tracedComp) Compress(g []float32, info grace.TensorInfo) (*grace.Payload, error) {
	start := c.r.now()
	p, err := c.inner.Compress(g, info)
	c.r.leaf(lCompress, start, c.r.now())
	if err == nil {
		c.r.mu.Lock()
		c.r.rawBytes += int64(len(g) * 4)
		c.r.payloadBytes += int64(p.WireBytes())
		c.r.mu.Unlock()
	}
	return p, err
}

func (c *tracedComp) Decompress(p *grace.Payload, info grace.TensorInfo) ([]float32, error) {
	start := c.r.now()
	out, err := c.inner.Decompress(p, info)
	c.r.leaf(lDecompress, start, c.r.now())
	return out, err
}

type intoCap struct {
	into grace.DecompressorInto
	r    *rankRec
}

func (c intoCap) DecompressInto(p *grace.Payload, info grace.TensorInfo, dst []float32) error {
	start := c.r.now()
	err := c.into.DecompressInto(p, info, dst)
	c.r.leaf(lDecompress, start, c.r.now())
	return err
}

// aggCap and customCap forward untimed: Aggregate is grace-layer work (it
// shows as grace self time) and CommunicateAggregate's time is its traced
// collective calls.
type aggCap struct{ agg grace.Aggregator }

func (c aggCap) Aggregate(decoded [][]float32, info grace.TensorInfo) []float32 {
	return c.agg.Aggregate(decoded, info)
}

type customCap struct{ custom grace.CustomComm }

func (c customCap) CommunicateAggregate(g []float32, info grace.TensorInfo, coll comm.Collective) ([]float32, int, error) {
	return c.custom.CommunicateAggregate(g, info, coll)
}

// traceCompressor wraps c so that the wrapper implements Aggregator,
// CustomComm and DecompressorInto exactly when c does.
func traceCompressor(c grace.Compressor, r *rankRec) grace.Compressor {
	base := &tracedComp{inner: c, r: r}
	caps := grace.Capabilities(c)
	into, agg, custom := intoCap{caps.Into, r}, aggCap{caps.Aggregator}, customCap{caps.Custom}
	switch hasInto, hasAgg, hasCustom := caps.Into != nil, caps.Aggregator != nil, caps.Custom != nil; {
	case hasInto && hasAgg && hasCustom:
		return struct {
			*tracedComp
			intoCap
			aggCap
			customCap
		}{base, into, agg, custom}
	case hasInto && hasAgg:
		return struct {
			*tracedComp
			intoCap
			aggCap
		}{base, into, agg}
	case hasInto && hasCustom:
		return struct {
			*tracedComp
			intoCap
			customCap
		}{base, into, custom}
	case hasAgg && hasCustom:
		return struct {
			*tracedComp
			aggCap
			customCap
		}{base, agg, custom}
	case hasInto:
		return struct {
			*tracedComp
			intoCap
		}{base, into}
	case hasAgg:
		return struct {
			*tracedComp
			aggCap
		}{base, agg}
	case hasCustom:
		return struct {
			*tracedComp
			customCap
		}{base, custom}
	}
	return base
}

// benchModel taps the loss of every step for the oracle (RunWorker discards
// it) and, in a traced run, times the nn boundary. The forward/backward end
// opens the exchange span that tracedOptim closes.
type benchModel struct {
	inner  grace.Model
	losses []float64
	r      *rankRec // nil untraced
	tr     *trainTrace
}

func (m *benchModel) Params() []*nn.Param { return m.inner.Params() }

func (m *benchModel) ForwardBackward(b data.Batch) float64 {
	var start int64
	if m.r != nil {
		start = m.r.now()
	}
	loss := m.inner.ForwardBackward(b)
	m.losses = append(m.losses, loss)
	if m.r != nil {
		m.r.leaf(lForwardBackward, start, m.r.now())
		m.tr.graceID, m.tr.graceStart = m.r.open(lGraceStep)
	}
	return loss
}

// trainTrace carries the open span ids of one rank's training iteration
// between the wrappers that see its boundaries.
type trainTrace struct {
	stepID, graceID       int32
	stepStart, graceStart int64
}

type tracedDataset struct {
	inner data.Dataset
	r     *rankRec
}

func (d *tracedDataset) Len() int { return d.inner.Len() }

func (d *tracedDataset) Batch(indices []int) data.Batch {
	start := d.r.now()
	b := d.inner.Batch(indices)
	d.r.leaf(lBatch, start, d.r.now())
	return b
}

type tracedOptim struct {
	optim.Optimizer
	r  *rankRec
	tr *trainTrace
}

func (o *tracedOptim) Step(params []*nn.Param, grads []*tensor.Dense) {
	o.r.close(lGraceStep, o.tr.graceID, o.tr.graceStart)
	start := o.r.now()
	o.Optimizer.Step(params, grads)
	o.r.leaf(lOptimStep, start, o.r.now())
}
