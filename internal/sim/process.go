package sim

type yieldKind int

const (
	yieldDone yieldKind = iota
	yieldPanic
	yieldSleep
	yieldWait
)

type yieldMsg struct {
	kind     yieldKind
	d        Duration // sleep duration, or wait timeout (-1 = none)
	cond     *Cond
	panicVal interface{}
}

// Process is a cooperative simulated actor. All methods must be called
// from within the process's own function; they hand control back to the
// engine and block until the engine reschedules the process.
type Process struct {
	engine    *Engine
	name      string
	resume    chan struct{}
	yield     chan yieldMsg
	done      bool
	timedOut  bool
	cancelSeq uint64 // events with seq < cancelSeq are stale
}

// Name returns the diagnostic name given at Spawn.
func (p *Process) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Process) Now() Time { return p.engine.Now() }

// Engine returns the engine driving this process.
func (p *Process) Engine() *Engine { return p.engine }

// Sleep advances the process by d of virtual time. Other processes run
// in the meantime. A non-positive d yields the processor for zero time,
// still giving same-time events scheduled earlier a chance to run.
func (p *Process) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.yield <- yieldMsg{kind: yieldSleep, d: d}
	<-p.resume
}

// Spawn starts a child process from within this process.
func (p *Process) Spawn(name string, fn func(p *Process)) *Process {
	return p.engine.Spawn(name, fn)
}
