package sim

import "slices"

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
	name string
	// waiters is FIFO and keeps its backing array across wake-ups, so
	// waiting allocates only while a condition's waiter count is still
	// reaching its peak; slot is that array while the peak is one (a
	// connector, a kernel's done, a future).
	waiters []*Process
	slot    [1]*Process
}

// NewCond returns a condition variable with a diagnostic name.
func NewCond(name string) *Cond { return &Cond{name: name} }

// Name returns the diagnostic name.
func (c *Cond) Name() string { return c.name }

func (c *Cond) enqueue(p *Process) {
	if c.waiters == nil {
		c.waiters = c.slot[:0]
	}
	c.waiters = append(c.waiters, p)
	p.cond = c
}

func (c *Cond) removeWaiter(p *Process) {
	if i := slices.Index(c.waiters, p); i >= 0 {
		c.waiters = slices.Delete(c.waiters, i, i+1)
	}
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
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.waiters = slices.Delete(c.waiters, 0, 1) // shifts in place: same order, same array
	c.wake(e, p)
}

// Broadcast wakes all waiters at the current virtual time.
func (c *Cond) Broadcast(e *Engine) {
	for _, p := range c.waiters {
		c.wake(e, p)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

func (c *Cond) wake(e *Engine, p *Process) {
	p.cond = nil
	p.timedOut = false
	e.schedule(p, e.now) // a pending timeout's slot stays behind, kept
}

// Waiters returns the number of processes currently blocked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }
