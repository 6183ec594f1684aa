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
// semantics — fixed capacity, producer blocking when full — are
// preserved because they matter for backpressure behaviour.
type SQ struct {
	name       string
	slots      []SQE
	head, tail uint64
	writable   *sim.Cond
	inserted   *sim.Cond

	// Submitted counts SQEs ever inserted (for the "CQEs fewer than
	// SQEs" daemon-restart rule).
	Submitted int
}

// sqSlots is the slot count of every rank's submission queue.
const sqSlots = 4096

// NewSQ creates a submission queue with the given slot count.
func NewSQ(name string, cap int) *SQ {
	if cap < 1 {
		panic("core: SQ needs at least one slot")
	}
	return &SQ{
		name:     name,
		slots:    make([]SQE, cap),
		writable: sim.NewCond(name + ".writable"),
		inserted: sim.NewCond(name + ".inserted"),
	}
}

// Len returns the number of pending SQEs.
func (q *SQ) Len() int { return int(q.tail - q.head) }

// Push inserts an SQE, blocking the producer while the ring is full.
// It charges the CPU-side SQE write cost.
func (q *SQ) Push(p *sim.Process, e SQE) {
	for q.tail-q.head >= uint64(len(q.slots)) {
		q.writable.Wait(p)
	}
	p.Sleep(SQEWriteTime)
	q.slots[q.tail%uint64(len(q.slots))] = e
	q.tail++
	q.Submitted++
	q.inserted.Signal(p.Engine())
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

// Inserted returns the condition signalled on each insertion; the
// event-driven daemon start hooks onto it.
func (q *SQ) Inserted() *sim.Cond { return q.inserted }

func (q *SQ) String() string {
	return fmt.Sprintf("%s[%d/%d]", q.name, q.Len(), len(q.slots))
}
