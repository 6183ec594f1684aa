package sim

// Process is a cooperative simulated actor. All methods must be called
// from within the process's own function; they hand control back to the
// engine and block until the engine reschedules the process.
type Process struct {
	engine     *Engine
	name       string
	ord        uint64         // spawn ordinal, the process's identity in Engine.Fingerprint
	fn         func(*Process) // the body, until it returns
	w          *worker        // the coroutine running the body, from first dispatch to its end
	prev, next *Process       // Engine's list of live processes
	cond       *Cond          // the condition the process is blocked on, if any
	ev         int            // 1 + the index of the process's event in Engine.queue, 0 while it has none
	done       bool
	timedOut   bool
}

// Name returns the diagnostic name given at Spawn.
func (p *Process) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Process) Now() Time { return p.engine.Now() }

// Engine returns the engine driving this process.
func (p *Process) Engine() *Engine { return p.engine }

// park hands control back to the engine until it next dispatches an
// event for p. What wakes p (a timer, a place among a condition's
// waiters) must already be in place.
func (p *Process) park() { p.w.yield(struct{}{}) }

// Sleep advances the process by d of virtual time. Other processes run
// in the meantime. A non-positive d yields the processor for zero time,
// still giving same-time events scheduled earlier a chance to run.
func (p *Process) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.engine.schedule(p, p.engine.now.Add(d))
	p.park()
}

// Spawn starts a child process from within this process.
func (p *Process) Spawn(name string, fn func(p *Process)) *Process {
	return p.engine.Spawn(name, fn)
}
