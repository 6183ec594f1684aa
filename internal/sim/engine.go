// Package sim provides a deterministic discrete-event simulation engine.
//
// Simulated actors ("processes") are goroutines that run cooperatively:
// exactly one process executes at any instant, and control passes between
// the engine and processes through unbuffered channel handoffs. Processes
// advance virtual time by sleeping or by waiting on conditions; the engine
// orders all wakeups on a priority queue keyed by (virtual time, sequence
// number), which makes every run bit-for-bit reproducible.
//
// The engine also provides the property the whole repository is built
// around: if every live process is blocked on a condition and no timed
// event remains, the simulated system has deadlocked, and Run returns
// ErrDeadlock along with the set of blocked processes.
package sim

import (
	"errors"
	"fmt"
	"sort"
)

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(d)/float64(Second))
	}
}

// Time is an absolute virtual timestamp in nanoseconds since simulation start.
type Time int64

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

func (t Time) String() string { return Duration(t).String() }

// ErrDeadlock is returned by Run when no event can make progress while
// processes remain blocked.
var ErrDeadlock = errors.New("sim: global deadlock: all live processes blocked with no pending events")

type event struct {
	at  Time
	seq uint64
	p   *Process
}

// eventQueue is a binary min-heap ordered by (at, seq). It is hand-rolled
// rather than built on container/heap: the interface-based heap boxes an
// event allocation on every Push and Pop, which dominated the launch-path
// allocation profile (~half of all allocs/op on the nil-recorder probe).
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

// push appends ev and restores the heap invariant (sift up).
func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the minimum event (sift down).
func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = event{} // release the *Process reference
	*q = h[:n]
	h = h[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && h.less(right, left) {
			min = right
		}
		if !h.less(min, i) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// Engine is a discrete-event simulation driver. It is not safe for
// concurrent use; all interaction happens from the goroutine that calls
// Run plus the process goroutines the engine itself coordinates.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	procs   map[*Process]struct{}
	blocked map[*Process]*Cond // processes waiting on conditions, no timeout armed

	// MaxTime, when non-zero, bounds the simulation; Run returns
	// ErrTimeLimit once the clock would pass it.
	MaxTime Time
}

// ErrTimeLimit is returned by Run when the configured MaxTime is exceeded.
var ErrTimeLimit = errors.New("sim: virtual time limit exceeded")

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{
		procs:   make(map[*Process]struct{}),
		blocked: make(map[*Process]*Cond),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

func (e *Engine) schedule(p *Process, at Time) {
	e.seq++
	e.queue.push(event{at: at, seq: e.seq, p: p})
}

// Spawn creates a process executing fn and schedules it to start at the
// current virtual time. The name is used in diagnostics only.
func (e *Engine) Spawn(name string, fn func(p *Process)) *Process {
	p := &Process{
		engine: e,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan yieldMsg),
	}
	e.procs[p] = struct{}{}
	go func() {
		<-p.resume // wait for first scheduling
		defer func() {
			if r := recover(); r != nil {
				p.yield <- yieldMsg{kind: yieldPanic, panicVal: r}
				return
			}
			p.yield <- yieldMsg{kind: yieldDone}
		}()
		fn(p)
	}()
	e.schedule(p, e.now)
	return p
}

// Run drives the simulation until no runnable work remains. It returns:
//   - nil when all processes finished,
//   - ErrDeadlock when live processes remain but none can run,
//   - ErrTimeLimit when MaxTime is exceeded,
//   - or the panic value of a process that panicked, wrapped in an error.
func (e *Engine) Run() error {
	for {
		if len(e.queue) == 0 {
			if len(e.procs) == 0 {
				return nil
			}
			// Every remaining live process must be blocked on a
			// condition with no timeout: a global deadlock.
			return ErrDeadlock
		}
		ev := e.queue.pop()
		p := ev.p
		if p.done || ev.seq < p.cancelSeq {
			continue // stale wakeup (cancelled timer)
		}
		if e.MaxTime != 0 && ev.at > e.MaxTime {
			return ErrTimeLimit
		}
		e.now = ev.at
		// If this process was blocked on a condition (timed wait),
		// remove it from the waiters list: the timeout fired.
		if c, ok := e.blocked[p]; ok {
			c.removeWaiter(p)
			delete(e.blocked, p)
			p.timedOut = true
		}
		if err := e.step(p); err != nil {
			return err
		}
	}
}

// RunRanks spawns n processes named "<name>.rank<i>", each running
// body with its rank, and drives the simulation like Run. The first
// error a body returns wins over the engine's own: a rank that gives up
// strands its peers, so the deadlock the engine then reports is the
// symptom, not the cause. An engine error comes back wrapped with the
// names of the processes it left blocked.
func (e *Engine) RunRanks(name string, n int, body func(p *Process, rank int) error) error {
	var first error
	for rank := 0; rank < n; rank++ {
		e.Spawn(fmt.Sprintf("%s.rank%d", name, rank), func(p *Process) {
			if err := body(p, rank); err != nil && first == nil {
				first = err
			}
		})
	}
	err := e.Run()
	if first != nil {
		return first
	}
	if err != nil {
		return fmt.Errorf("%w (blocked: %v)", err, e.BlockedProcesses())
	}
	return nil
}

// step resumes p and processes its next yield.
func (e *Engine) step(p *Process) error {
	p.resume <- struct{}{}
	y := <-p.yield
	switch y.kind {
	case yieldDone:
		p.done = true
		delete(e.procs, p)
		delete(e.blocked, p)
		return nil
	case yieldPanic:
		p.done = true
		delete(e.procs, p)
		return fmt.Errorf("sim: process %q panicked: %v", p.name, y.panicVal)
	case yieldSleep:
		e.schedule(p, e.now.Add(y.d))
		return nil
	case yieldWait:
		c := y.cond
		c.waiters = append(c.waiters, p)
		if y.d >= 0 {
			p.cancelSeq = e.seq + 1
			e.schedule(p, e.now.Add(y.d))
		}
		e.blocked[p] = c
		return nil
	default:
		return fmt.Errorf("sim: process %q: unknown yield kind %d", p.name, y.kind)
	}
}

// BlockedProcesses returns the names of processes currently blocked on
// conditions, sorted, for deadlock diagnostics.
func (e *Engine) BlockedProcesses() []string {
	names := make([]string, 0, len(e.blocked))
	for p := range e.blocked {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}

// LiveProcesses returns the number of processes that have not finished.
func (e *Engine) LiveProcesses() int { return len(e.procs) }
