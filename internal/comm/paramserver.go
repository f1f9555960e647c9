package comm

import (
	"fmt"
	"sync"
)

// PSHub is a parameter-server-style collective group (§IV-A of the paper:
// "a parameter server provides a gradient aggregation function equivalent to
// Allreduce"). Workers push payloads to a central server goroutine-safe
// state; the server aggregates and every worker pulls the result. Unlike the
// peer hub, per-op traffic is asymmetric: workers each send one payload and
// receive one aggregate, while the server handles n of each — the topology
// whose incast bottleneck motivated ring allreduce in the first place.
//
// PSHub implements the same Collective contract as Hub so the GRACE trainer
// and pipeline run unchanged on either topology.
type PSHub struct {
	n   int
	mu  sync.Mutex
	cur *psRound
}

type psRound struct {
	slots   [][]byte
	vecs    [][]float32 // allreduce inputs, summed by the last depositor
	reduced []float32
	count   int
	done    chan struct{}
}

// NewPSHub creates a parameter-server group for n workers.
func NewPSHub(n int) *PSHub {
	if n <= 0 {
		panic("comm: ps hub size must be positive")
	}
	return &PSHub{n: n, cur: newPSRound(n)}
}

func newPSRound(n int) *psRound {
	return &psRound{slots: make([][]byte, n), vecs: make([][]float32, n), done: make(chan struct{})}
}

// Worker returns the handle for one rank.
func (h *PSHub) Worker(rank int) *PSWorker {
	if rank < 0 || rank >= h.n {
		panic(fmt.Sprintf("comm: rank %d out of [0,%d)", rank, h.n))
	}
	return &PSWorker{hub: h, rank: rank}
}

// push deposits a payload or an allreduce vector; the last depositor (acting
// as the server's aggregation step) sums the vectors before waking everyone.
// Every depositor is still blocked here then, so the vectors need no copy.
func (h *PSHub) push(rank int, payload []byte, vec []float32) *psRound {
	h.mu.Lock()
	r := h.cur
	r.slots[rank], r.vecs[rank] = payload, vec
	r.count++
	if r.count == h.n {
		if vec != nil {
			r.reduced = sumVecs(r.vecs)
		}
		h.cur = newPSRound(h.n)
		close(r.done)
	}
	h.mu.Unlock()
	<-r.done
	return r
}

func sumVecs(vecs [][]float32) []float32 {
	if len(vecs[0]) == 0 {
		return nil
	}
	out := append([]float32(nil), vecs[0]...)
	for _, other := range vecs[1:] {
		for i := range out {
			if i < len(other) {
				out[i] += other[i]
			}
		}
	}
	return out
}

// PSWorker is one worker's handle onto a PSHub.
type PSWorker struct {
	hub  *PSHub
	rank int
}

var _ Collective = (*PSWorker)(nil)

// Rank returns this worker's rank.
func (w *PSWorker) Rank() int { return w.rank }

// Size returns the group size.
func (w *PSWorker) Size() int { return w.hub.n }

// AllreduceF32 pushes the vector to the server, which sums once; every
// worker pulls the same aggregate.
func (w *PSWorker) AllreduceF32(x []float32) error {
	r := w.hub.push(w.rank, nil, x)
	if len(r.reduced) != len(x) {
		return fmt.Errorf("comm: ps allreduce length mismatch: %d vs %d", len(r.reduced), len(x))
	}
	copy(x, r.reduced)
	return nil
}

// AllgatherBytes pushes the payload and pulls everyone's (the server relays
// all payloads, which is what makes PS allgather expensive at scale).
func (w *PSWorker) AllgatherBytes(b []byte) ([][]byte, error) {
	r := w.hub.push(w.rank, b, nil)
	out := make([][]byte, len(r.slots))
	copy(out, r.slots)
	return out, nil
}

// BroadcastBytes pushes only on the root and pulls the root's payload.
func (w *PSWorker) BroadcastBytes(b []byte, root int) ([]byte, error) {
	if root < 0 || root >= w.hub.n {
		return nil, fmt.Errorf("comm: broadcast root %d out of range", root)
	}
	var payload []byte
	if w.rank == root {
		payload = b
	}
	r := w.hub.push(w.rank, payload, nil)
	return r.slots[root], nil
}

// Barrier blocks until all workers arrive at the server.
func (w *PSWorker) Barrier() error {
	w.hub.push(w.rank, nil, nil)
	return nil
}
