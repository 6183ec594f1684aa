package core

import (
	"fmt"

	"dfccl/internal/sim"
)

// SQE is a submission queue element: one collective run request, or the
// exiting SQE inserted by Destroy (Sec. 4.4).
type SQE struct {
	CollID int
	Exit   bool
}

// SQ is the submission queue: a single-producer (the invoking CPU
// thread) multi-consumer (daemon kernel blocks) ring buffer in
// page-locked host memory. The simulation runs one consumer process per
// daemon kernel, so SPMC reduces to SPSC here, but the ring-buffer
// semantics — bounded capacity, producer blocking when full — are
// preserved because they matter for backpressure behaviour.
//
// The ring's array starts at sqInitialSlots and doubles, up to the
// bound, only when the backlog fills it: a rank that never has more than
// a few launches pending never pays for the bound's slots.
type SQ struct {
	name       string
	slots      []SQE
	bound      int
	head, tail uint64
	writable   sim.Cond
	inserted   sim.Cond
}

// sqSlots is the slot count of every rank's submission queue.
const sqSlots = 4096

// sqInitialSlots is the array an SQ starts with, before its backlog
// grows it.
const sqInitialSlots = 16

// NewSQ creates a submission queue with the given slot count.
func NewSQ(name string, cap int) *SQ {
	if cap < 1 {
		panic("core: SQ needs at least one slot")
	}
	return &SQ{
		name:  name,
		slots: make([]SQE, min(cap, sqInitialSlots)),
		bound: cap,
	}
}

// Len returns the number of pending SQEs.
func (q *SQ) Len() int { return int(q.tail - q.head) }

// Push inserts an SQE, blocking the producer while the ring holds its
// bound. It charges the CPU-side SQE write cost.
func (q *SQ) Push(p *sim.Process, e SQE) {
	for q.Len() >= q.bound {
		q.writable.Wait(p)
	}
	p.Sleep(SQEWriteTime)
	if q.Len() == len(q.slots) && len(q.slots) < q.bound {
		q.grow()
	}
	q.slots[q.tail%uint64(len(q.slots))] = e
	q.tail++
	q.inserted.Signal(p.Engine())
}

// grow doubles the ring's array, up to the bound, keeping the pending
// SQEs at the positions head and tail name in the larger ring.
func (q *SQ) grow() {
	slots := make([]SQE, min(2*len(q.slots), q.bound))
	for i := q.head; i != q.tail; i++ {
		slots[i%uint64(len(slots))] = q.slots[i%uint64(len(q.slots))]
	}
	q.slots = slots
}

// TryPop removes the oldest SQE without blocking. The daemon charges
// ReadSQETime per successful pop at its call site.
func (q *SQ) TryPop(e *sim.Engine) (SQE, bool) {
	if q.tail == q.head {
		return SQE{}, false
	}
	sqe := q.slots[q.head%uint64(len(q.slots))]
	q.head++
	q.writable.Signal(e)
	return sqe, true
}

// String renders the queue as name[pending/bound].
func (q *SQ) String() string {
	return fmt.Sprintf("%s[%d/%d]", q.name, q.Len(), q.bound)
}
