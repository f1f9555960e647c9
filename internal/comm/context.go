package comm

import "context"

// ContextCollective is the optional context-aware extension of Collective:
// every primitive gains a variant that honors ctx cancellation and deadlines.
// It is an extension interface rather than a change to Collective so existing
// implementations and wrappers keep compiling; callers reach it through the
// package-level dispatch helpers (AllreduceF32, AllgatherBytes, ...), which
// fall back to the plain methods — after a ctx.Err() gate — when the handle
// does not implement it.
//
// The lockstep contract is unchanged: a context expiring on one worker fails
// that worker's op, and the resulting group desync surfaces on the peers as
// transport errors. Contexts bound how long a worker waits; they do not make
// collectives unilaterally abortable.
type ContextCollective interface {
	Collective
	// AllreduceF32Ctx is AllreduceF32 bounded by ctx.
	AllreduceF32Ctx(ctx context.Context, x []float32) error
	// AllgatherBytesCtx is AllgatherBytes bounded by ctx.
	AllgatherBytesCtx(ctx context.Context, b []byte) ([][]byte, error)
	// BroadcastBytesCtx is BroadcastBytes bounded by ctx.
	BroadcastBytesCtx(ctx context.Context, b []byte, root int) ([]byte, error)
	// BarrierCtx is Barrier bounded by ctx.
	BarrierCtx(ctx context.Context) error
}

// AllreduceF32 dispatches a context-bounded allreduce: the ContextCollective
// fast path when c implements it, otherwise a ctx.Err() gate in front of the
// plain method (an already-expired context never starts the op; one expiring
// mid-op is then bounded by the transport's own timeouts).
func AllreduceF32(ctx context.Context, c Collective, x []float32) error {
	if cc, ok := c.(ContextCollective); ok {
		return cc.AllreduceF32Ctx(ctx, x)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.AllreduceF32(x)
}

// AllgatherBytes dispatches a context-bounded allgather (see AllreduceF32).
func AllgatherBytes(ctx context.Context, c Collective, b []byte) ([][]byte, error) {
	if cc, ok := c.(ContextCollective); ok {
		return cc.AllgatherBytesCtx(ctx, b)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.AllgatherBytes(b)
}

// BroadcastBytes dispatches a context-bounded broadcast (see AllreduceF32).
func BroadcastBytes(ctx context.Context, c Collective, b []byte, root int) ([]byte, error) {
	if cc, ok := c.(ContextCollective); ok {
		return cc.BroadcastBytesCtx(ctx, b, root)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.BroadcastBytes(b, root)
}

// Barrier dispatches a context-bounded barrier (see AllreduceF32).
func Barrier(ctx context.Context, c Collective) error {
	if cc, ok := c.(ContextCollective); ok {
		return cc.BarrierCtx(ctx)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.Barrier()
}
