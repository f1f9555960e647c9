package comm

import (
	"context"
	"time"
)

// Unwrapper is implemented by collective wrappers (Meter, Faulty, WithTimeout,
// Resilient) so capability probes can walk to the transport underneath.
type Unwrapper interface {
	Unwrap() Collective
}

// as walks a wrapper chain down to the first layer that implements T, so a
// capability (reform, elastic membership, abort, close) is reachable no
// matter how the wrappers are stacked.
func as[T any](c Collective) (T, bool) {
	for c != nil {
		if t, ok := c.(T); ok {
			return t, true
		}
		u, ok := c.(Unwrapper)
		if !ok {
			break
		}
		c = u.Unwrap()
	}
	var zero T
	return zero, false
}

// reformCapable filters a reform-capability probe through the transport's own
// say. TCPRing carries the Reformer and Elastic methods on its one type, but
// they work only with heartbeats on (only the liveness layer convicts a
// death); AsReformer and AsElastic must report what the handle can
// do, not what its method set spells, so that callers fail fast at setup
// ("cannot reform") instead of at the first peer death.
func reformCapable[T any](t T, ok bool) (T, bool) {
	if g, gated := any(t).(interface{ canReform() bool }); ok && gated && !g.canReform() {
		var zero T
		return zero, false
	}
	return t, ok
}

// call is one collective op travelling through a wrapper: which primitive,
// its arguments, and the slots its results land in.
type call struct {
	op   Op
	x    []float32 // allreduce vector, reduced in place
	b    []byte    // allgather / broadcast payload
	root int       // broadcast root
	all  [][]byte  // allgather result
	out  []byte    // broadcast result
}

// invoke runs the call on c through the dispatch helpers, so the context
// reaches c's Ctx methods when it has them and gates the plain ones when it
// does not.
func (k *call) invoke(ctx context.Context, c Collective) (err error) {
	switch k.op {
	case OpAllreduce:
		err = AllreduceF32(ctx, c, k.x)
	case OpAllgather:
		k.all, err = AllgatherBytes(ctx, c, k.b)
	case OpBroadcast:
		k.out, err = BroadcastBytes(ctx, c, k.b, k.root)
	default:
		err = Barrier(ctx, c)
	}
	return err
}

// middleware is the plumbing every wrapper shares: Rank/Size/Unwrap, the four
// plain methods and the four Ctx methods, all funnelled into one intercept
// hook. A wrapper embeds it and supplies the hook; the hook decides what
// happens around (or instead of) k.invoke(ctx, inner).
//
// The call record lives in the handle rather than on the stack: it would
// escape through the hook's indirect call, and a wrapper must not add an
// allocation per op. The single-goroutine handle contract makes that safe —
// and binding, even for Meter and WithTimeout over a concurrency-safe inner
// such as Serial: one wrapper handle serves one goroutine. do panics when it
// catches a second op entering while one is in flight.
type middleware struct {
	inner Collective
	hook  func(ctx context.Context, k *call) error
	k     call
}

func (m *middleware) do(ctx context.Context, k call) (call, error) {
	if m.k.op != "" {
		panic("comm: wrapper handle driven by two goroutines at once (" + string(m.k.op) + " in flight)")
	}
	m.k = k
	err := m.hook(ctx, &m.k)
	k, m.k = m.k, call{} // don't pin the caller's buffers until the next op
	return k, err
}

// Rank forwards to the wrapped collective.
func (m *middleware) Rank() int { return m.inner.Rank() }

// Size forwards to the wrapped collective.
func (m *middleware) Size() int { return m.inner.Size() }

// Unwrap exposes the wrapped collective to capability probes (AsReformer,
// AsElastic, AsJoiner).
func (m *middleware) Unwrap() Collective { return m.inner }

// AllreduceF32 is AllreduceF32Ctx under the background context.
func (m *middleware) AllreduceF32(x []float32) error {
	return m.AllreduceF32Ctx(context.Background(), x)
}

// AllgatherBytes is AllgatherBytesCtx under the background context.
func (m *middleware) AllgatherBytes(b []byte) ([][]byte, error) {
	return m.AllgatherBytesCtx(context.Background(), b)
}

// BroadcastBytes is BroadcastBytesCtx under the background context.
func (m *middleware) BroadcastBytes(b []byte, root int) ([]byte, error) {
	return m.BroadcastBytesCtx(context.Background(), b, root)
}

// Barrier is BarrierCtx under the background context.
func (m *middleware) Barrier() error { return m.BarrierCtx(context.Background()) }

// AllreduceF32Ctx runs the wrapper's hook around the wrapped allreduce.
func (m *middleware) AllreduceF32Ctx(ctx context.Context, x []float32) error {
	_, err := m.do(ctx, call{op: OpAllreduce, x: x})
	return err
}

// AllgatherBytesCtx runs the wrapper's hook around the wrapped allgather.
func (m *middleware) AllgatherBytesCtx(ctx context.Context, b []byte) ([][]byte, error) {
	k, err := m.do(ctx, call{op: OpAllgather, b: b})
	return k.all, err
}

// BroadcastBytesCtx runs the wrapper's hook around the wrapped broadcast.
func (m *middleware) BroadcastBytesCtx(ctx context.Context, b []byte, root int) ([]byte, error) {
	k, err := m.do(ctx, call{op: OpBroadcast, b: b, root: root})
	return k.out, err
}

// BarrierCtx runs the wrapper's hook around the wrapped barrier.
func (m *middleware) BarrierCtx(ctx context.Context) error {
	_, err := m.do(ctx, call{op: OpBarrier})
	return err
}

// WithTimeout wraps a Collective so that every operation runs under a per-op
// deadline of d, delivered through the context layer: the declarative
// replacement for threading ad-hoc timeout knobs into each transport's
// config. It is the one producer of non-background contexts in the tree; the
// one consumer is TCPRing, which turns the deadline into socket deadlines.
// Callers that pass their own context get the tighter of the two deadlines
// (context.WithTimeout composes). d <= 0 returns inner unchanged. Like every
// wrapper the returned handle is for one goroutine, whatever inner tolerates.
func WithTimeout(inner Collective, d time.Duration) Collective {
	if d <= 0 {
		return inner
	}
	return &middleware{inner: inner, hook: func(ctx context.Context, k *call) error {
		ctx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		return k.invoke(ctx, inner)
	}}
}
