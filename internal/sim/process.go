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
	wprev      *Process       // the waiter of cond before p, if any
	wnext      *Process       // the waiter of cond after p, if any
	ev         int            // 1 + the index of the process's slot in Engine.queue, 0 while it has none
	seq        uint64         // the seq of the process's latest event: a queued entry with another is stale
	stepper    Stepper        // the machine whose turns the engine takes at p's wake-ups (Await), if any
	done       bool
	timedOut   bool
}

// Wait is what a Stepper's turn asks the engine to do next on its process's
// behalf. With a nil Cond it is a Sleep for D. With a Cond it is a
// WaitTimeout on it for D or, when Untimed, a Wait: no timer is set, so a
// process parked on a signal that never comes has no event queued and is
// what Run's ErrDeadlock and BlockedProcesses report, exactly as if its
// body had called Cond.Wait. A negative D is a zero one.
type Wait struct {
	Cond    *Cond
	D       Duration
	Untimed bool
}

// Stepper is code between waits, written as a machine that returns each
// wait instead of making it. Next does the work due now and answers
// (w, true), "wait for w, then call me again", or (_, false), "finished".
// Process.Await runs the machine: the first Next on the process's own
// stack, every later one by the engine, on Run's own stack, at the dispatch
// of the wake-up, exactly where the process would have been resumed (the
// clock at the wake-up, a timed-out process already out of the condition's
// waiters, Process.TimedOut saying which it was). The engine then makes the
// wait in the order the blocking calls do (join the condition's waiters,
// then queue the timer under the next sequence number) and goes on to the
// next event; the process's coroutine is resumed only when Next answers
// false. Every event, sequence number and waiter position is the blocking
// code's, so the timeline does not change; only the switches do.
//
// A turn is ordinary simulation code: it may read and change model state,
// Signal, Broadcast, Spawn and record trace events. It must not block: no
// process is running, and any Sleep, wait or Await called from it panics.
// A panic in Next is the waiting process's own: the process is resumed to
// raise it on its own stack, and Run reports it like a panic of its body.
// Implement Next on state the caller already owns, so that passing it
// allocates nothing.
//
// A poll is a Stepper like any other: its empty turns cost a dispatch and
// no switch. A machine may run another inside it by handing on the inner
// one's waits until it is finished: DFCCL's daemon kernel hands on the
// primitive loop's, which hands on a fabric transfer's.
type Stepper interface {
	Next() (w Wait, again bool)
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
// engine's own stack (a turn it takes for p, a Stepper's Next) or another
// process's body cannot do.
func (p *Process) mustRun() {
	if p.engine.running != p {
		panic(fmt.Sprintf("sim: process %q blocked outside its own body (inside a Stepper's turn, or from another process)", p.name))
	}
}

// Sleep advances the process by d of virtual time. Other processes run
// in the meantime. A non-positive d yields the processor for zero time,
// still giving same-time events scheduled earlier a chance to run.
func (p *Process) Sleep(d Duration) {
	p.mustRun()
	p.engine.wait(p, Wait{D: d})
	p.park()
}

// Await runs the machine s to its end: p's body written as
//
//	for w, again := s.Next(); again; w, again = s.Next() {
//		// p.Sleep(w.D), w.Cond.Wait(p) or w.Cond.WaitTimeout(p, w.D)
//	}
//
// event for event, under the same sequence numbers, except that every Next
// after the first runs on the engine's stack (see Stepper) and p itself is
// resumed only once, when Next answers false.
func (p *Process) Await(s Stepper) {
	p.mustRun()
	if w, again := s.Next(); again {
		p.parkWith(w, s)
	}
}

// parkWith makes the wait w and parks p with s installed to take the turns
// at its wake-ups, until one answers false. If a turn panicked, the panic
// is p's: the engine resumed p to raise it here, on p's own stack.
func (p *Process) parkWith(w Wait, s Stepper) {
	p.stepper = s
	p.engine.wait(p, w)
	p.park()
	p.stepper = nil
	if r := p.w.panicked; r != nil {
		p.w.panicked = nil
		panic(r)
	}
}

// TimedOut reports, inside a Stepper's turn, whether the wait that just
// ended was a wait on a condition that ran out of time without a signal:
// what Cond.WaitTimeout would have returned.
func (p *Process) TimedOut() bool { return p.timedOut }

// Spawn starts a child process from within this process.
func (p *Process) Spawn(name string, fn func(p *Process)) *Process {
	return p.engine.Spawn(name, fn)
}
