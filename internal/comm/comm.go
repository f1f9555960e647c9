// Package comm provides the collective-communication substrate: the
// Collective interface (the role Horovod plays in the paper), an in-process
// hub implementation for goroutine workers, a real TCP ring implementation,
// and a byte-metering wrapper used for the paper's data-volume accounting.
package comm

import (
	"context"
	"sync/atomic"
)

// Collective exposes the three primitives GRACE's communication strategies
// need (§IV-B): Allreduce for summable tensors, Allgather for variable-length
// compressed payloads, and Broadcast. Implementations are per-worker handles;
// every method is a synchronization point that all workers must enter.
//
// Concurrency contract: the group advances in lockstep rounds, so every
// worker must issue the *identical sequence* of collective operations in the
// same order, and a single worker's handle must NOT be used from multiple
// goroutines concurrently — interleaved calls from one worker would enroll
// in rounds its peers attribute to different tensors. Distinct workers'
// handles are independent and are driven concurrently by design (each worker
// goroutine or process owns exactly one handle). Callers that want to
// overlap computation with communication across many tensors must serialize
// their collective calls in a deterministic order; grace.Engine does exactly
// that by funneling all calls through one driver goroutine in ascending
// tensor order while codec work proceeds on other goroutines. These
// guarantees are exercised by TestCollectiveLockstepConcurrency.
type Collective interface {
	// Rank is this worker's id in [0, Size).
	Rank() int
	// Size is the number of workers.
	Size() int
	// AllreduceF32 sums x elementwise across all workers, in place. All
	// workers must pass equal-length slices. The result is bitwise identical
	// on every worker. The implementation owns x for the duration of the call
	// and reduces in place; after an error the contents of x are unspecified
	// (a ring that lost a frame mid-body has summed part of it), so a caller
	// that retries must restore its input first, as Resilient does.
	AllreduceF32(x []float32) error
	// AllgatherBytes distributes each worker's payload to all workers,
	// returned in rank order. Payload lengths may differ across workers.
	AllgatherBytes(b []byte) ([][]byte, error)
	// BroadcastBytes sends root's payload to all workers (the returned slice
	// on the root is its own payload).
	BroadcastBytes(b []byte, root int) ([]byte, error)
	// Barrier blocks until all workers arrive.
	Barrier() error
}

// Serial is the degenerate single-worker collective.
type Serial struct{}

var _ Collective = Serial{}

// Rank returns 0.
func (Serial) Rank() int { return 0 }

// Size returns 1.
func (Serial) Size() int { return 1 }

// AllreduceF32 is the identity for a single worker.
func (Serial) AllreduceF32(x []float32) error { return nil }

// AllgatherBytes returns the worker's own payload.
func (Serial) AllgatherBytes(b []byte) ([][]byte, error) { return [][]byte{b}, nil }

// BroadcastBytes returns the payload unchanged.
func (Serial) BroadcastBytes(b []byte, root int) ([]byte, error) { return b, nil }

// Barrier is a no-op.
func (Serial) Barrier() error { return nil }

// Meter wraps a Collective and counts the bytes this worker sends and
// receives. Sends are the paper's "data volume each worker generates" metric
// (§V): for AllreduceF32 the logical send volume is the full vector
// (4 bytes/element); for AllgatherBytes and BroadcastBytes it is the worker's
// own payload (broadcast: on the root only). Receives are the mirror image —
// the peer payload bytes this worker collects — which is what allgather-heavy
// sparsifiers need for an honest wire-cost figure: each worker sends one
// compressed payload but receives n-1 of them. Barriers carry no payload and
// are not counted as ops.
type Meter struct {
	middleware
	sent atomic.Int64
	recv atomic.Int64
	ops  atomic.Int64
}

var _ ContextCollective = (*Meter)(nil)

// NewMeter wraps inner with byte accounting. The counters may be read from
// any goroutine; the ops themselves follow the single-goroutine handle
// contract, whatever inner tolerates.
func NewMeter(inner Collective) *Meter {
	m := &Meter{}
	m.middleware = middleware{inner: inner, hook: m.account}
	return m
}

// account is Meter's intercept: sends are counted on entry, receives only
// once the op succeeded.
func (m *Meter) account(ctx context.Context, k *call) error {
	if k.op == OpBarrier {
		return k.invoke(ctx, m.inner)
	}
	rank := m.inner.Rank()
	m.ops.Add(1)
	switch k.op {
	case OpAllreduce:
		m.sent.Add(int64(len(k.x) * 4))
	case OpAllgather:
		m.sent.Add(int64(len(k.b)))
	case OpBroadcast:
		if rank == k.root {
			m.sent.Add(int64(len(k.b)))
		}
	}
	if err := k.invoke(ctx, m.inner); err != nil {
		return err
	}
	switch k.op {
	case OpAllreduce:
		// The reduced vector comes back at full width.
		m.recv.Add(int64(len(k.x) * 4))
	case OpAllgather:
		for i, p := range k.all {
			if i != rank {
				m.recv.Add(int64(len(p)))
			}
		}
	case OpBroadcast:
		if rank != k.root {
			m.recv.Add(int64(len(k.out)))
		}
	}
	return nil
}

// BytesSent reports the total payload bytes this worker has sent.
func (m *Meter) BytesSent() int64 { return m.sent.Load() }

// BytesRecv reports the total peer payload bytes this worker has received.
func (m *Meter) BytesRecv() int64 { return m.recv.Load() }

// Ops reports the number of collective operations performed.
func (m *Meter) Ops() int64 { return m.ops.Load() }

// Reset zeroes the counters.
func (m *Meter) Reset() {
	m.sent.Store(0)
	m.recv.Store(0)
	m.ops.Store(0)
}
