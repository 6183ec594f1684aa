package sim

import "fmt"

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
	rep        Repeater       // the repeating wait the process is in, if any
	repCond    *Cond          // the condition that wait re-joins at every turn; nil for SleepWhile
	done       bool
	timedOut   bool
}

// Repeater is the body of a polling loop written as a repeating wait
// (SleepWhile, WaitWhile). Again is one turn of that loop, taken by the
// engine on the waiting process's behalf: it runs on Run's own stack at the
// dispatch of the wake-up, exactly where the process would have been
// resumed (the clock at the wake-up, a timed-out process already out of the
// condition's waiters). Like the loop body it may read and change model
// state, Signal, Broadcast, Spawn and record trace events. It must not
// block: no process is running, and any Sleep or wait called from it
// panics.
//
// Again may answer (d, true), "nothing to do, wait again for d", only when
// the turn the process would have taken is nothing but that next wait; the
// engine then queues the wait and the process stays parked. False is
// always safe: the process is resumed and the repeating wait returns.
// Implement Again on state the caller already owns, so that passing it
// allocates nothing.
type Repeater interface {
	Again() (d Duration, again bool)
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

// mustRun panics unless p's own body is what is executing. Every wait
// starts with it: a wait hands p's coroutine back to the engine, which the
// engine's own stack (an Again) or another process's body cannot do.
func (p *Process) mustRun() {
	if p.engine.running != p {
		panic(fmt.Sprintf("sim: process %q blocked outside its own body (inside an Again, or from another process)", p.name))
	}
}

// Sleep advances the process by d of virtual time. Other processes run
// in the meantime. A non-positive d yields the processor for zero time,
// still giving same-time events scheduled earlier a chance to run.
func (p *Process) Sleep(d Duration) {
	p.mustRun()
	if d < 0 {
		d = 0
	}
	p.engine.schedule(p, p.engine.now.Add(d))
	p.park()
}

// SleepWhile is the polling loop
//
//	for again := true; again; d, again = r.Again() {
//		p.Sleep(d)
//	}
//
// event for event, under the same sequence numbers, except that Again runs
// on the engine's stack (see Repeater) and p itself is resumed only once,
// when Again answers false.
func (p *Process) SleepWhile(d Duration, r Repeater) {
	p.mustRun()
	p.rep = r
	p.Sleep(d)
	p.endRepeat()
}

// endRepeat leaves a repeating wait. If Again panicked, the panic is p's:
// the engine resumed p to raise it here, on p's own stack.
func (p *Process) endRepeat() {
	p.rep, p.repCond = nil, nil
	if r := p.w.panicked; r != nil {
		p.w.panicked = nil
		panic(r)
	}
}

// Spawn starts a child process from within this process.
func (p *Process) Spawn(name string, fn func(p *Process)) *Process {
	return p.engine.Spawn(name, fn)
}
