package grace

import (
	"fmt"

	"repro/internal/telemetry"
)

// decodeAggregate decompresses every rank's Allgather payload and writes the
// aggregate into dst (len(dst) == info.Size(), contents ignored). The default
// aggregation is the mean, accumulated in rank order so results are bitwise
// identical on every worker; compressors with a custom Agg function
// (caps.Aggregator) replace it. When the compressor supports DecompressInto,
// the mean path runs allocation-free over scratch — the decoding lane's own
// buffer, free because a lane finishes its compress loop before it decodes.
// ts scopes the decode/aggregate telemetry spans to that lane.
func decodeAggregate(c Compressor, caps Caps, all [][]byte, info TensorInfo, dst []float32, n float32, scratch []float32, ts telScope) error {
	size := info.Size()
	if caps.Aggregator != nil {
		// Custom Agg function (Algorithm 1, line 13) needs every rank's
		// decoded gradient at once.
		span := ts.start()
		decoded := make([][]float32, len(all))
		for rank, b := range all {
			dec, err := c.Decompress(&Payload{Bytes: b}, info)
			if err != nil {
				return fmt.Errorf("grace: %s decompress rank %d: %w", c.Name(), rank, err)
			}
			if len(dec) != size {
				return fmt.Errorf("grace: %s decompressed %d elements, want %d", c.Name(), len(dec), size)
			}
			decoded[rank] = dec
		}
		ts.end(telemetry.PhaseDecode, info.Name, span)
		span = ts.start()
		agg := caps.Aggregator.Aggregate(decoded, info)
		if len(agg) != size {
			return fmt.Errorf("grace: %s aggregated %d elements, want %d", c.Name(), len(agg), size)
		}
		copy(dst, agg)
		ts.end(telemetry.PhaseAggregate, info.Name, span)
		return nil
	}

	for i := range dst {
		dst[i] = 0
	}
	for rank, b := range all {
		var dec []float32
		span := ts.start()
		if caps.Into != nil {
			dec = scratch[:size]
			if err := caps.Into.DecompressInto(&Payload{Bytes: b}, info, dec); err != nil {
				return fmt.Errorf("grace: %s decompress rank %d: %w", c.Name(), rank, err)
			}
		} else {
			var err error
			dec, err = c.Decompress(&Payload{Bytes: b}, info)
			if err != nil {
				return fmt.Errorf("grace: %s decompress rank %d: %w", c.Name(), rank, err)
			}
			if len(dec) != size {
				return fmt.Errorf("grace: %s decompressed %d elements, want %d", c.Name(), len(dec), size)
			}
		}
		ts.end(telemetry.PhaseDecode, info.Name, span)
		span = ts.start()
		for i, v := range dec {
			dst[i] += v
		}
		ts.end(telemetry.PhaseAggregate, info.Name, span)
	}
	span := ts.start()
	scale(dst, 1/n)
	ts.end(telemetry.PhaseAggregate, info.Name, span)
	return nil
}
