package sim

// Barrier is a poisonable generation barrier for n simulated
// processes. Wait blocks until all n have arrived and reports true; a
// process that learns a peer will never arrive (an aborted collective,
// a lost rank) calls Poison, which releases every blocked waiter with
// false and makes every later Wait return false without blocking.
// Callers that never poison can ignore Wait's result.
type Barrier struct {
	n, arrived, gen int
	poisoned        bool
	cond            Cond
}

// NewBarrier returns a barrier for n processes; the name is not kept.
func NewBarrier(name string, n int) *Barrier {
	return &Barrier{n: n}
}

// Wait blocks until the barrier's current generation completes or the
// barrier is poisoned; it reports whether the barrier is still healthy.
func (b *Barrier) Wait(p *Process) bool {
	if b.poisoned {
		return false
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast(p.Engine())
		return true
	}
	for gen == b.gen && !b.poisoned {
		b.cond.Wait(p)
	}
	return !b.poisoned
}

// Poison marks the barrier dead and releases every blocked waiter.
func (b *Barrier) Poison(e *Engine) {
	b.poisoned = true
	b.cond.Broadcast(e)
}
