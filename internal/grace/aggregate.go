package grace

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// decodeAggregate decodes every rank's Allgather payload with candidate c of
// the lane and writes the aggregate into dst (len(dst) == info.Size(),
// contents ignored). The default aggregation is the mean, accumulated in rank
// order so results are bitwise identical on every worker, and decoded
// through the lane's scratch — free because a lane finishes its compress loop
// before it decodes. A codec with a custom Agg function (Caps.Aggregator,
// Algorithm 1 line 13) replaces the mean and needs every rank's decoded
// gradient at once, so each gets a slice of its own.
func (ln *engineLane) decodeAggregate(c int, all [][]byte, info TensorInfo, dst []float32, n float32) error {
	name, agg := ln.comps[c].Name(), ln.caps[c].Aggregator
	var decoded [][]float32
	into := ln.scratch
	if agg != nil {
		decoded, into = make([][]float32, len(all)), nil
	}
	clear(dst)
	for rank, b := range all {
		span := ln.ts.start()
		dec, err := ln.decode(c, Payload{Bytes: b}, info, into)
		if err != nil {
			return fmt.Errorf("grace: %s decompress rank %d: %w", name, rank, err)
		}
		ln.ts.end(telemetry.PhaseDecode, info.Name, span)
		if agg != nil {
			decoded[rank] = dec
			continue
		}
		span = ln.ts.start()
		tensor.Axpy(1, dec, dst)
		ln.ts.end(telemetry.PhaseAggregate, info.Name, span)
	}
	span := ln.ts.start()
	if agg != nil {
		out := agg.Aggregate(decoded, info)
		if len(out) != len(dst) {
			return fmt.Errorf("grace: %s aggregated %d elements, want %d", name, len(out), len(dst))
		}
		copy(dst, out)
	} else {
		tensor.Scale(1/n, dst)
	}
	ln.ts.end(telemetry.PhaseAggregate, info.Name, span)
	return nil
}
