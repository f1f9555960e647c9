package comm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"
)

// Elastic membership.
//
// The generation-stamped reform protocol (Reformer) can only rebuild the
// group at its original world size: every rank must come back, so a
// permanently lost machine parks the survivors forever. The elastic layer
// relaxes that. Ranks keep their *original* identity for life — checkpoint
// directories, snapshot ownership, and supervisor bookkeeping stay keyed by
// it — while the collective's Rank()/Size() report the rank's *current*
// index inside the sorted member set. The remap is therefore deterministic:
// after losing original rank 1 from {0,1,2}, the members are {0,2} and their
// current ranks are 0 and 1; if rank 1 later rejoins, everyone's original
// index is restored.
//
// A shrink is a vote with a deadline: survivors call ReformElastic(wait) in
// place of Reform. If the full membership arrives within wait, the group
// reforms intact (a transient death that healed in time). Otherwise the
// arrived set commits a new generation at the smaller size and the missing
// ranks are evicted — any later call they make fails with ErrEvicted, which
// classifies as fatal so no retry layer resurrects them into a group that
// has moved on without them.
//
// A grow is the reverse handshake: a fresh worker registers as a pending
// joiner (Joiner.JoinGroup blocks until absorbed), the members observe it at
// a step boundary, agree on the same absorb set, and call ReformGrow — one
// rendezvous later the group is back at the larger size with the original
// indices restored.

// Membership describes one committed configuration of an elastic group.
type Membership struct {
	// Gen is the generation the configuration was committed under.
	Gen uint64
	// Members holds the original ranks currently in the group, sorted
	// ascending. A member's current rank is its index in this slice.
	Members []int
	// Rank is the receiver's current rank: its index in Members. Negative in
	// memberships not addressed to a specific member.
	Rank int
	// Lost holds the original ranks evicted by the transition that produced
	// this membership (empty for intact reforms and grows).
	Lost []int
}

// Size is the committed world size.
func (m Membership) Size() int { return len(m.Members) }

// CurrentRank maps an original rank to its current index in the member set,
// or -1 if the rank is not a member.
func (m Membership) CurrentRank(orig int) int { return indexOf(m.Members, orig) }

// Elastic is implemented by collectives whose group can change world size at
// a reform boundary. Like Reform, both reform calls are synchronization
// points: every current member must call the same method at the same
// position of its op sequence.
type Elastic interface {
	// ReformElastic rebuilds the group, waiting up to wait for the full
	// membership; members still missing when the deadline expires are evicted
	// and the survivors commit a smaller world size.
	ReformElastic(wait time.Duration) (Membership, error)
	// ReformGrow rebuilds the group absorbing pending joiners. members is the
	// agreed post-grow member set (original ranks, sorted); every current
	// member must pass the same set. Pending joiners not in members stay
	// pending; listed joiners that never registered are skipped.
	ReformGrow(members []int) (Membership, error)
	// PendingJoins reports the original ranks of workers waiting to be
	// absorbed, sorted ascending.
	PendingJoins() []int
	// Membership reports the current committed configuration.
	Membership() Membership
}

// Joiner is the fresh worker's side of the grow handshake.
type Joiner interface {
	// JoinGroup blocks until the group absorbs this worker via ReformGrow or
	// wait expires.
	JoinGroup(wait time.Duration) (Membership, error)
}

// AsElastic walks a wrapper chain down to the first layer that supports
// elastic membership, if any.
func AsElastic(c Collective) (Elastic, bool) { return reformCapable(as[Elastic](c)) }

// AsJoiner walks a wrapper chain down to the first layer that can join an
// elastic group, if any.
func AsJoiner(c Collective) (Joiner, bool) { return as[Joiner](c) }

// maxMembers bounds a decoded member list, mirroring maxFrame's role for
// payload frames: a hostile or corrupt length can't force a huge allocation.
const maxMembers = 4096

// encodeMembers serializes a sorted member list for the join/probe wire
// exchanges: a 4-byte big-endian count followed by one 4-byte big-endian
// original rank per member.
func encodeMembers(members []int) []byte {
	b := make([]byte, 4+4*len(members))
	binary.BigEndian.PutUint32(b, uint32(len(members)))
	for i, m := range members {
		binary.BigEndian.PutUint32(b[4+4*i:], uint32(m))
	}
	return b
}

// decodeMembers parses an encodeMembers payload, rejecting hostile input
// with typed errors: the list must be exactly sized, bounded, strictly
// ascending, and non-negative.
func decodeMembers(b []byte) ([]int, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: member list header %d bytes", ErrCorrupt, len(b))
	}
	n := binary.BigEndian.Uint32(b)
	if n == 0 || n > maxMembers {
		return nil, fmt.Errorf("%w: member count %d out of [1,%d]", ErrCorrupt, n, maxMembers)
	}
	if len(b) != 4+4*int(n) {
		return nil, fmt.Errorf("%w: member list %d bytes, want %d", ErrCorrupt, len(b), 4+4*n)
	}
	members := make([]int, n)
	for i := range members {
		v := binary.BigEndian.Uint32(b[4+4*i:])
		if v > maxMembers {
			return nil, fmt.Errorf("%w: member rank %d out of [0,%d]", ErrCorrupt, v, maxMembers)
		}
		members[i] = int(v)
		if i > 0 && members[i] <= members[i-1] {
			return nil, fmt.Errorf("%w: member list not strictly ascending at index %d", ErrCorrupt, i)
		}
	}
	return members, nil
}

// membershipDigest folds a member list into a nonzero 64-bit FNV-1a digest,
// generation-independent, so ring setup can confirm that all participants
// agree on who is in the group before any payload flows.
func membershipDigest(members []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, m := range members {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(m >> s))
			h *= prime64
		}
	}
	if h == 0 {
		h = offset64
	}
	return h
}

// indexOf locates v in a sorted ascending slice, or -1.
func indexOf(sorted []int, v int) int {
	i := sort.SearchInts(sorted, v)
	if i < len(sorted) && sorted[i] == v {
		return i
	}
	return -1
}

// sortedUnion merges two sorted ascending member lists without duplicates.
func sortedUnion(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Ints(out)
	w := 0
	for i, v := range out {
		if i > 0 && v == out[w-1] {
			continue
		}
		out[w] = v
		w++
	}
	return out[:w]
}
