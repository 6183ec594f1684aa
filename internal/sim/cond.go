package sim

// Cond is a simulated condition variable. Processes block on it with
// Wait or WaitTimeout; any code running inside the simulation (including
// other processes) wakes them with Signal or Broadcast.
//
// Unlike sync.Cond there is no associated lock: the simulation is
// cooperatively scheduled, so state examined before Wait cannot change
// until the process yields. The idiomatic pattern is
//
//	for !ready() {
//		cond.Wait(p)
//	}
type Cond struct {
	// The waiters, oldest first, linked through Process.wprev and wnext: a
	// process waits on one condition at a time, so no operation allocates.
	head, tail *Process
}

// NewCond returns a condition variable; the name is not kept.
func NewCond(name string) *Cond { return new(Cond) }

func (c *Cond) enqueue(p *Process) {
	p.cond, p.wprev = c, c.tail
	if c.tail != nil {
		c.tail.wnext = p
	} else {
		c.head = p
	}
	c.tail = p
}

// unlink takes p out of c's waiters, wherever it stands.
func (c *Cond) unlink(p *Process) {
	if p.wprev != nil {
		p.wprev.wnext = p.wnext
	} else {
		c.head = p.wnext
	}
	if p.wnext != nil {
		p.wnext.wprev = p.wprev
	} else {
		c.tail = p.wprev
	}
	p.cond, p.wprev, p.wnext = nil, nil, nil
}

// Wait blocks the process until the condition is signalled. If no signal
// ever arrives and no timed events remain, the engine declares deadlock.
func (c *Cond) Wait(p *Process) {
	p.mustRun()
	p.engine.wait(p, Wait{Cond: c, Untimed: true})
	p.park()
}

// WaitTimeout blocks until the condition is signalled or d elapses.
// It reports true if the wait timed out without a signal.
func (c *Cond) WaitTimeout(p *Process, d Duration) (timedOut bool) {
	p.mustRun()
	p.engine.wait(p, Wait{Cond: c, D: d})
	p.park()
	return p.timedOut
}

// Signal wakes one waiter (FIFO order) at the current virtual time.
func (c *Cond) Signal(e *Engine) {
	if p := c.head; p != nil {
		c.unlink(p)
		p.timedOut = false
		e.schedule(p, e.now) // a pending timeout's slot stays behind, kept
	}
}

// Broadcast wakes all waiters, oldest first, at the current virtual time.
func (c *Cond) Broadcast(e *Engine) {
	for c.head != nil {
		c.Signal(e)
	}
}

// Waiters returns the number of processes currently blocked on c.
func (c *Cond) Waiters() (n int) {
	for p := c.head; p != nil; p = p.wnext {
		n++
	}
	return n
}
