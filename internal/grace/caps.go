package grace

// DecompressorInto is an optional Compressor capability: decompress a payload
// directly into a caller-provided buffer instead of allocating the output.
// dst has exactly info.Size() elements and must be fully overwritten
// (including zeros for unselected positions of sparse formats). The Engine
// uses this fast path, when available, to keep the EF update's local
// decompression and the per-rank decoding of the Allgather mean allocation-free
// over a lane-owned scratch buffer.
type DecompressorInto interface {
	Compressor
	DecompressInto(p *Payload, info TensorInfo, dst []float32) error
}

// Caps describes what a compressor instance can do beyond the base
// Compressor contract. It replaces scattered type assertions with one probe:
// the narrowed interface values double as the way to invoke each capability.
type Caps struct {
	// Strategy is the compressor's declared communication strategy.
	Strategy Strategy
	// Aggregator is non-nil when the method overrides the default mean with
	// a custom Agg function (Algorithm 1, line 13), e.g. majority vote.
	Aggregator Aggregator
	// Custom is non-nil when the method drives its own collectives
	// (Strategy() == Custom), e.g. PowerSGD's two-allreduce scheme.
	Custom CustomComm
	// Into is non-nil when the method can decompress into a caller-provided
	// buffer (allocation-free decode path).
	Into DecompressorInto
}

// Capabilities probes a compressor once for every optional interface the
// framework dispatches on. Probe at construction or setup time, not per
// exchange.
func Capabilities(c Compressor) Caps {
	caps := Caps{Strategy: c.Strategy()}
	if a, ok := c.(Aggregator); ok {
		caps.Aggregator = a
	}
	if cc, ok := c.(CustomComm); ok {
		caps.Custom = cc
	}
	if di, ok := c.(DecompressorInto); ok {
		caps.Into = di
	}
	return caps
}
