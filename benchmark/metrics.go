package main

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/encode"
	"repro/internal/fxrand"
	"repro/internal/telemetry"
)

// quantile is the q-th order statistic of the samples (nearest rank).
func quantile[T cmp.Ordered](xs []T, q float64) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median[T cmp.Ordered](xs []T) T { return quantile(xs, 0.5) }

func ms(ns float64) float64 { return ns / 1e6 }

func endToEndMetrics(m map[string]value, st *runStats, setupS float64) {
	n := float64(st.steps)
	set := func(name string, v float64) { m[name] = value{v, unitOf(endToEnd, name)} }
	set("steps_per_s", n/st.wall.Seconds())
	set("step_p50_ms", ms(float64(median(st.stepNs))))
	set("step_p95_ms", ms(float64(quantile(st.stepNs, 0.95))))
	set("cpu_ms_per_step", ms(float64(st.cpu))/n)
	set("allocs_per_step", float64(st.mallocs)/n)
	set("alloc_kb_per_step", float64(st.allocBytes)/1024/n)
	set("wire_bytes_per_step", st.sentBytes/n)
	set("setup_s", setupS)
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not in the spec")
}

// tracedPhases are the telemetry phases reported as grace.phase_*_ms.
var tracedPhases = []telemetry.Phase{
	telemetry.PhaseCompensate, telemetry.PhaseEncode, telemetry.PhaseAggregate,
	telemetry.PhaseFuse, telemetry.PhaseWireSend, telemetry.PhaseWireRecv,
}

// phaseSums reads the process-wide phase accumulators. They sum over ranks.
func phaseSums() (sums [telemetry.NumPhases]int64) {
	for p := range sums {
		sums[p] = telemetry.Default.PhaseHistogram(telemetry.Phase(p)).SumNs()
	}
	return sums
}

func perLayerMetrics(m map[string]value, rec *recorder, st, ref *runStats,
	dial time.Duration, before, after [telemetry.NumPhases]int64) {
	n := float64(st.steps)
	r0 := rec.ranks[0]
	set := func(name string, v float64) { m[name] = value{v, unitOf(perLayer, name)} }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	perStepMs := func(l layer) float64 { return ms(float64(r0.ns[l])) / n }

	var ops, commNs int64
	for _, l := range []layer{lAllreduce, lAllgather, lBroadcast, lBarrier} {
		ops += r0.calls[l]
		commNs += r0.ns[l]
	}
	set("comm.ops_per_step", float64(ops)/n)
	set("comm.allreduce_ms_per_step", perStepMs(lAllreduce))
	set("comm.allgather_ms_per_step", perStepMs(lAllgather))
	set("comm.us_per_op", ratio(float64(commNs)/1e3, float64(ops)))
	set("comm.allreduce_gbps", ratio(float64(r0.allreduceBytes)*8, float64(r0.ns[lAllreduce])))
	set("comm.entry_skew_ms_per_step", ms(float64(rec.entrySkewNs()))/n)
	set("comm.sent_bytes_per_step", float64(r0.sent)/n)
	set("comm.recv_bytes_per_step", float64(r0.recv)/n)
	set("comm.dial_ms", ms(float64(dial)))
	set("comm.failed_ops", float64(r0.failedOps))

	set("compress.compress_ms_per_step", perStepMs(lCompress))
	set("compress.decompress_ms_per_step", perStepMs(lDecompress))
	set("compress.calls_per_step", float64(r0.calls[lCompress]+r0.calls[lDecompress])/n)
	set("compress.mb_per_s", ratio(float64(r0.rawBytes)/1e6, float64(r0.ns[lCompress])/1e9))
	set("compress.ratio", ratio(float64(r0.rawBytes), float64(r0.payloadBytes)))

	encodeMetrics(set)

	set("grace.step_ms", perStepMs(lGraceStep))
	set("grace.self_ms_per_step", ms(float64(r0.selfNs))/n)
	for _, p := range tracedPhases {
		set("grace.phase_"+p.String()+"_ms", ms(float64(after[p]-before[p]))/ranks/n)
	}
	set("grace.rounds_per_step", float64(st.rounds)/n)
	set("grace.fused_buckets_per_step", float64(st.fused)/n)

	set("nn.forward_backward_ms_per_step", perStepMs(lForwardBackward))
	set("data.batch_ms_per_step", perStepMs(lBatch))
	set("optim.step_ms_per_step", perStepMs(lOptimStep))

	set("simnet.allreduce_measured_over_modeled", ratio(float64(r0.ns[lAllreduce]), float64(r0.modeledNs[lAllreduce])))
	set("simnet.allgather_measured_over_modeled", ratio(float64(r0.ns[lAllgather]), float64(r0.modeledNs[lAllgather])))

	set("proc.gc_cycles_per_kstep", float64(st.gcCycles)/n*1e3)
	set("proc.gc_pause_ms_per_kstep", ms(float64(st.gcPause))/n*1e3)
	set("proc.peak_rss_mb", float64(rusage().Maxrss)/1024)

	// The traced step, and the share of it no span below the step accounts
	// for: the benchmark's own loop around Engine.Step, or RunWorker's
	// bookkeeping between the four spans of a training iteration.
	var stepNs float64
	for _, d := range st.stepNs {
		stepNs += float64(d)
	}
	accounted := r0.ns[lGraceStep] + r0.ns[lForwardBackward] + r0.ns[lBatch] + r0.ns[lOptimStep]
	set("trace.step_ms", ms(stepNs)/n)
	set("trace.residual_pct", 100*(stepNs-float64(accounted))/stepNs)
	// Mean, not median, step: manysmall_fused's step time is bimodal, so its
	// median hops between the modes from one short run to the next.
	set("trace.overhead_pct", 100*((st.wall.Seconds()/n)/(ref.wall.Seconds()/float64(ref.steps))-1))
}

// encodeElems is the payload size the encode kernels are timed on: the
// index count of top-k 1% on mlpwide's largest tensor (196 608 elements).
const encodeElems = 1966

// encodeMetrics times the encode package's kernels directly, on inputs the
// size of train_tcp_topk's payloads.
func encodeMetrics(set func(string, float64)) {
	const reps = 500
	rng := fxrand.New(7)
	idx := rng.Sample(196608, encodeElems)
	slices.Sort(idx)
	syms := make([]uint32, encodeElems)
	vals := make([]float32, encodeElems)
	for i := range syms {
		syms[i] = rng.Uint32() & 3
		vals[i] = rng.NormFloat32()
	}
	perElem := func(fn func()) float64 {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		return float64(time.Since(start)) / (reps * encodeElems)
	}
	var block []byte
	set("encode.indices_enc_ns_per_elem", perElem(func() { block = encode.EncodeIndices(idx) }))
	set("encode.indices_dec_ns_per_elem", perElem(func() {
		if _, err := encode.DecodeIndices(block); err != nil {
			panic(err) // the block was encoded one line up
		}
	}))
	set("encode.packbits_ns_per_elem", perElem(func() { sink = len(encode.PackBits(syms, 2)) }))
	set("encode.f16_ns_per_elem", perElem(func() {
		for _, v := range vals {
			sink += int(encode.F32ToF16(v))
		}
	}))
}

// sink keeps the timed kernels' results alive.
var sink int
