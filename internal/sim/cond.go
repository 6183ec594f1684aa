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
	name    string
	waiters []*Process
}

// NewCond returns a condition variable with a diagnostic name.
func NewCond(name string) *Cond { return &Cond{name: name} }

// Name returns the diagnostic name.
func (c *Cond) Name() string { return c.name }

func (c *Cond) removeWaiter(p *Process) {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Wait blocks the process until the condition is signalled. If no signal
// ever arrives and no timed events remain, the engine declares deadlock.
func (c *Cond) Wait(p *Process) {
	p.yield <- yieldMsg{kind: yieldWait, d: -1, cond: c}
	<-p.resume
}

// WaitTimeout blocks until the condition is signalled or d elapses.
// It reports true if the wait timed out without a signal.
func (c *Cond) WaitTimeout(p *Process, d Duration) (timedOut bool) {
	if d < 0 {
		d = 0
	}
	p.timedOut = false
	p.yield <- yieldMsg{kind: yieldWait, d: d, cond: c}
	<-p.resume
	return p.timedOut
}

// Signal wakes one waiter (FIFO order) at the current virtual time.
func (c *Cond) Signal(e *Engine) {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.waiters = c.waiters[1:]
	c.wake(e, p)
}

// Broadcast wakes all waiters at the current virtual time.
func (c *Cond) Broadcast(e *Engine) {
	ws := c.waiters
	c.waiters = nil
	for _, p := range ws {
		c.wake(e, p)
	}
}

func (c *Cond) wake(e *Engine, p *Process) {
	delete(e.blocked, p)
	p.cancelSeq = e.seq + 1 // invalidate any pending timeout event
	p.timedOut = false
	e.schedule(p, e.now)
}

// Waiters returns the number of processes currently blocked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }
