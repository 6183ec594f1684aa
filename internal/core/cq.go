package core

import (
	"fmt"

	"dfccl/internal/sim"
)

// CQVariant selects one of the three completion-queue designs the
// paper develops and ablates (Sec. 5, Fig. 7(c)).
type CQVariant int

const (
	// CQOptimized is the slot-scan CQ: a CQE is a bare collective ID
	// written with a single atomicCAS_system; ring semantics are
	// abandoned. ≈2.0µs per CQE write.
	CQOptimized CQVariant = iota
	// CQOptimizedRing keeps ring-buffer semantics but fuses the
	// collective ID and the tail into one 64-bit atomic write,
	// eliminating the memory fence. ≈4.8µs per CQE write.
	CQOptimizedRing
	// CQVanillaRing is the baseline ring buffer: five host-memory
	// operations plus a fence per CQE. ≈6.9µs per CQE write.
	CQVanillaRing
)

// cqWriteCost is the GPU-side cost of inserting one CQE — the one
// number the three designs differ in.
var cqWriteCost = [...]sim.Duration{
	CQOptimized:     2000 * sim.Nanosecond,
	CQOptimizedRing: 4800 * sim.Nanosecond,
	CQVanillaRing:   6900 * sim.Nanosecond,
}

// String names the variant: "optimized", "optimized-ring" or
// "vanilla-ring".
func (v CQVariant) String() string {
	switch v {
	case CQOptimized:
		return "optimized"
	case CQOptimizedRing:
		return "optimized-ring"
	case CQVanillaRing:
		return "vanilla-ring"
	default:
		return fmt.Sprintf("CQVariant(%d)", int(v))
	}
}

// CQ is a completion queue: the daemon pushes completed collective IDs,
// the CPU poller drains them. It is one bounded FIFO for all three
// variants. The hardware designs differ in how a CQE reaches host
// memory, which the model charges as WriteCost at the push site (so the
// ablation of Fig. 7(c) falls out of the same code path), not in what
// the poller observes: every consumer drains the whole queue, so the
// slot-scan design fills slots 0, 1, 2, … between drains and its scan
// order is push order, like the two rings.
type CQ struct {
	variant CQVariant
	slots   int
	pending []int
	spare   []int // the array the last Drain returned, which the next one refills
}

// NewCQ builds a CQ of the given variant with the given slot count.
func NewCQ(v CQVariant, slots int) *CQ {
	if slots < 1 {
		panic("core: CQ needs at least one slot")
	}
	if v < 0 || int(v) >= len(cqWriteCost) {
		panic(fmt.Sprintf("core: unknown CQ variant %v", v))
	}
	return &CQ{variant: v, slots: slots}
}

// WriteCost is the GPU-side cost of inserting one CQE.
func (q *CQ) WriteCost() sim.Duration { return cqWriteCost[q.variant] }

// Push inserts a completed collective ID; it reports false when the
// queue is full (the daemon retries after the poller drains).
func (q *CQ) Push(collID int) bool {
	if len(q.pending) >= q.slots {
		// More CQEs than slots is an overwritten completion: a callback
		// that never runs, far from whatever filled the queue behind
		// Push's back.
		if len(q.pending) > q.slots {
			panic(fmt.Sprintf("core: %v CQ holds %d CQEs in %d slots", q.variant, len(q.pending), q.slots))
		}
		return false
	}
	q.pending = append(q.pending, collID)
	return true
}

// Drain removes and returns all available CQEs in completion order, nil
// when there are none. The returned slice is valid until the next Drain:
// the two calls alternate between two arrays, so pushes cost no allocation
// once both have grown (only the poller drains).
func (q *CQ) Drain() []int {
	if len(q.pending) == 0 {
		return nil
	}
	out := q.pending
	q.pending, q.spare = q.spare[:0], out
	return out
}
