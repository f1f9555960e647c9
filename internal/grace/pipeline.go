package grace

import (
	"fmt"
	"time"

	"repro/internal/comm"
)

// Pipeline is the sequential reference implementation of the per-tensor
// exchange of Algorithm 1 (lines 5-14): one worker, one tensor at a time,
// compress → communicate → aggregate. Nothing but tests and benchmarks
// constructs one — the Engine drives every run — so it exists as the bitwise
// oracle the Engine is checked against, and is written to stay independent
// of it: only the public Compressor, Memory and Collective APIs, the
// allocating Decompress everywhere, its own rank-order mean, plain
// allocation, no telemetry.
type Pipeline struct {
	Comp Compressor
	Mem  *Memory // nil disables framework EF
	Coll comm.Collective
}

// Exchange runs one tensor through compress → communicate → aggregate and
// returns the aggregated (mean) gradient every worker agrees on. The
// returned slice is freshly allocated and owned by the caller.
func (p *Pipeline) Exchange(g []float32, info TensorInfo) ([]float32, StepStats, error) {
	name := p.Comp.Name()
	stats := StepStats{Strategy: p.Comp.Strategy()}
	n := float32(p.Coll.Size())

	start := time.Now()
	comp := g
	if p.Mem != nil {
		comp = p.Mem.Compensate(info.Name, g)
	}

	// Custom strategy: the compressor drives communication itself.
	if stats.Strategy == Custom {
		cc, ok := p.Comp.(CustomComm)
		if !ok {
			return nil, stats, fmt.Errorf("grace: %s declares Custom strategy but lacks CustomComm", name)
		}
		stats.CodecTime = time.Since(start)
		agg, sent, err := cc.CommunicateAggregate(comp, info, p.Coll)
		if err != nil {
			return nil, stats, fmt.Errorf("grace: %s custom comm: %w", name, err)
		}
		stats.SentBytes = sent
		stats.RecvBytes = sent // symmetric-exchange assumption, as in Engine
		if p.Mem != nil {
			t := time.Now()
			p.Mem.Update(info.Name, comp, agg)
			stats.CodecTime += time.Since(t)
		}
		return agg, stats, nil
	}

	pay, err := p.Comp.Compress(comp, info)
	if err != nil {
		return nil, stats, fmt.Errorf("grace: %s compress %s: %w", name, info.Name, err)
	}
	stats.SentBytes = pay.WireBytes()

	// Worker-local approximation, needed for the memory update; computed
	// before communication so codec time excludes collective wait.
	if p.Mem != nil {
		approx, err := p.Comp.Decompress(pay, info)
		if err != nil {
			return nil, stats, fmt.Errorf("grace: %s local decompress: %w", name, err)
		}
		p.Mem.Update(info.Name, comp, approx)
	}
	stats.CodecTime = time.Since(start)

	var agg []float32
	switch stats.Strategy {
	case Allreduce:
		if pay.Dense == nil {
			return nil, stats, fmt.Errorf("grace: %s uses Allreduce but produced no dense payload", name)
		}
		summed := append([]float32(nil), pay.Dense...)
		if err := p.Coll.AllreduceF32(summed); err != nil {
			return nil, stats, fmt.Errorf("grace: allreduce: %w", err)
		}
		stats.RecvBytes = len(summed) * 4
		t := time.Now()
		if agg, err = p.Comp.Decompress(&Payload{Dense: summed}, info); err != nil {
			return nil, stats, fmt.Errorf("grace: %s decompress sum: %w", name, err)
		}
		scale(agg, 1/n)
		stats.CodecTime += time.Since(t)

	case Allgather:
		if pay.Bytes == nil && pay.Dense != nil {
			return nil, stats, fmt.Errorf("grace: %s uses Allgather but produced a dense payload", name)
		}
		all, err := p.Coll.AllgatherBytes(pay.Bytes)
		if err != nil {
			return nil, stats, fmt.Errorf("grace: allgather: %w", err)
		}
		t := time.Now()
		stats.GatherSizes = make([]int, len(all))
		decoded := make([][]float32, len(all))
		for rank, b := range all {
			stats.GatherSizes[rank] = len(b)
			if rank != p.Coll.Rank() {
				stats.RecvBytes += len(b)
			}
			if decoded[rank], err = p.Comp.Decompress(&Payload{Bytes: b}, info); err != nil {
				return nil, stats, fmt.Errorf("grace: %s decompress rank %d: %w", name, rank, err)
			}
			if len(decoded[rank]) != info.Size() {
				return nil, stats, fmt.Errorf("grace: %s decompressed %d elements, want %d", name, len(decoded[rank]), info.Size())
			}
		}
		if custom, ok := p.Comp.(Aggregator); ok {
			// Custom Agg function (Algorithm 1, line 13).
			if agg = custom.Aggregate(decoded, info); len(agg) != info.Size() {
				return nil, stats, fmt.Errorf("grace: %s aggregated %d elements, want %d", name, len(agg), info.Size())
			}
		} else {
			// The mean, accumulated in rank order so every worker computes
			// the same bits.
			agg = make([]float32, info.Size())
			for _, dec := range decoded {
				for i, v := range dec {
					agg[i] += v
				}
			}
			scale(agg, 1/n)
		}
		stats.CodecTime += time.Since(t)

	default:
		return nil, stats, fmt.Errorf("grace: unhandled strategy %v", stats.Strategy)
	}
	return agg, stats, nil
}

// scale is the Pipeline's own mean step, a plain loop, so the oracle shares
// no kernel with the Engine it checks.
func scale(x []float32, s float32) {
	for i := range x {
		x[i] *= s
	}
}
