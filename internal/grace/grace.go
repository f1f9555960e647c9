// Package grace is the core of the reproduction: the unified compressed-
// communication framework of §IV. It defines the Compressor interface (the
// paper's compress/decompress API), the error-feedback Memory (the
// memory_compensate/memory_update functions, Eq. 4), the compressor registry
// (Table I), the communication-strategy dispatch of Algorithm 1, and the
// distributed training loop itself.
package grace

import (
	"fmt"

	"repro/internal/comm"
)

// Strategy selects the collective primitive a compressor's payloads require
// (Algorithm 1, lines 7-14).
type Strategy int

const (
	// Allgather is the general strategy: workers exchange opaque compressed
	// payloads and aggregate after decompression (Agg = mean). It supports
	// variable sizes and arbitrary wire formats.
	Allgather Strategy = iota
	// Allreduce requires the compressed form to be a dense summable float32
	// vector of fixed length; aggregation happens inside the collective.
	// It is cheaper on the wire (2(n−1)/n vs n−1 payload traversals) but,
	// as the paper notes, most compressed formats are not summable.
	Allreduce
	// Custom lets the compressor drive communication itself (PowerSGD's
	// two-allreduce scheme); the compressor must implement CustomComm.
	Custom
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Allgather:
		return "allgather"
	case Allreduce:
		return "allreduce"
	case Custom:
		return "custom"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// TensorInfo describes the gradient tensor being compressed. Name is unique
// per parameter and stable across iterations, which is what lets compressors
// and memories keep per-tensor state. Rows/Cols give the matrix view used by
// low-rank methods (for a parameter of shape [a,b,...] the framework uses
// a × (size/a); vectors become 1 × size).
type TensorInfo struct {
	Name       string
	Shape      []int
	Rows, Cols int
}

// NewTensorInfo derives the matrix view from a shape.
func NewTensorInfo(name string, shape []int) TensorInfo {
	size := 1
	for _, d := range shape {
		size *= d
	}
	rows := 1
	if len(shape) >= 2 {
		rows = shape[0]
	}
	cols := size
	if rows > 0 {
		cols = size / rows
	}
	return TensorInfo{Name: name, Shape: append([]int(nil), shape...), Rows: rows, Cols: cols}
}

// Size returns the number of elements.
func (t TensorInfo) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Payload is one compressed gradient message. Exactly one of Dense and Bytes
// is populated: Dense for Allreduce-strategy compressors (summable float32
// form), Bytes for the packed Allgather wire format.
//
// Dense may alias the slice Compress was given (the identity codec returns
// its input) and is read-only to whoever consumes the payload: Engine and
// Pipeline copy it into a buffer of their own before the allreduce sums in
// place. It is valid only as long as the Compress input is.
type Payload struct {
	Dense []float32
	Bytes []byte
}

// WireBytes is the metered on-the-wire size of the payload, the paper's
// per-worker data-volume metric. Dense payloads cost 4 bytes per element.
func (p *Payload) WireBytes() int {
	if p == nil {
		return 0
	}
	if p.Dense != nil {
		return len(p.Dense) * 4
	}
	return len(p.Bytes)
}

// Compressor is the paper's core abstraction: a (lossy) codec for gradient
// tensors. Compress must not retain or mutate g. Decompress must return a
// vector of exactly info.Size() elements and must not retain p or return
// memory aliasing it (the Engine reuses the buffers a collective's result
// lands in from one step to the next). Implementations may keep per-tensor
// state keyed by info.Name (momentum, low-rank warm starts); they are used by
// a single worker and need not be safe for concurrent use — the Engine pins
// each tensor to one compressor instance so per-tensor state is never touched
// from two goroutines.
type Compressor interface {
	Name() string
	Strategy() Strategy
	Compress(g []float32, info TensorInfo) (*Payload, error)
	Decompress(p *Payload, info TensorInfo) ([]float32, error)
}

// Aggregator is the paper's custom Agg function (Algorithm 1, line 13):
// compressors under the Allgather strategy may replace the default mean of
// decompressed gradients with their own aggregation — e.g. SignSGD with
// majority vote [30] takes the sign of the element-wise sum.
type Aggregator interface {
	Compressor
	// Aggregate combines the decompressed per-worker gradients (rank order)
	// into the global gradient. Implementations must not retain decoded.
	Aggregate(decoded [][]float32, info TensorInfo) []float32
}

// CustomComm is implemented by Strategy() == Custom compressors that manage
// their own communication (e.g. PowerSGD allreduces its low-rank factors).
// It returns the aggregated (already averaged) gradient and the number of
// bytes this worker sent.
type CustomComm interface {
	Compressor
	CommunicateAggregate(g []float32, info TensorInfo, coll comm.Collective) (agg []float32, sentBytes int, err error)
}
