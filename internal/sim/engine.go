// Package sim provides a deterministic discrete-event simulation engine.
//
// Simulated actors ("processes") run cooperatively: exactly one process
// executes at any instant. A process body runs on a coroutine (iter.Pull)
// that the engine resumes and that yields back once the process has
// queued its own timer or joined a condition's waiters; the switch is a
// direct goroutine hand-off that never enters the Go scheduler, and a
// coroutine whose body returned runs the next spawned process. Processes
// advance virtual time by sleeping or by waiting on conditions; the engine
// orders all wakeups on a priority queue keyed by (virtual time, sequence
// number), which makes every run bit-for-bit reproducible. A wakeup at the
// current instant joins a FIFO lane instead, drained in the same order. The
// heap holds one slot per process: a signal that beats a WaitTimeout's timer
// leaves the timer's slot kept, for the next timer to re-key in place, so a
// timer that never fires costs nothing once its wait is over.
//
// A process is resumed when only its own body can go on, not whenever a
// wait of its ends. Code whose work between two waits needs no stack of its
// own is written as a machine that returns each wait instead of making it
// (a Stepper: the primitive loop of a collective, a fabric transfer, the
// DFCCL daemon kernel and CPU poller that poll around them) and handed to
// Process.Await. The engine dispatches each wake-up of such a process as it
// would any other, under the same (time, sequence number), and takes the
// turn itself, on Run's stack: it runs the machine's next step, makes the
// wait that step asks for on the process's behalf, in the order the
// blocking calls would have, and goes on to the next event without
// switching coroutines. The timeline is the blocking code's, event for
// event; only the switches are gone.
//
// The engine also provides the property the whole repository is built
// around: if every live process is blocked on a condition and no timed
// event remains, the simulated system has deadlocked, and Run returns
// ErrDeadlock along with the set of blocked processes.
package sim

import (
	"errors"
	"fmt"
	"iter"
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

// String renders d in the largest unit it reaches: ns, us, ms or s.
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

// String renders t as the Duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// ErrDeadlock is returned by Run when no event can make progress while
// processes remain blocked.
var ErrDeadlock = errors.New("sim: global deadlock: all live processes blocked with no pending events")

type event struct {
	at  Time
	seq uint64
	p   *Process
}

// before reports whether a is dispatched before b.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap ordered by (at, seq) that holds at most
// one slot per process. Each slot's position is kept in its process
// (Process.ev), so a process's next timer re-keys its slot in place instead
// of leaving a cancelled one behind, and the heap is never deeper than the
// live processes are many, however many timers were set and never fired. A
// slot holds the process's event while its seq is the process's (Process.seq);
// otherwise it is kept: the process was woken through the lane.
//
// Events sit in the array by value, so a sift compares without leaving it;
// it moves a hole and writes Process.ev only for the entries that move.
// The heap is hand-rolled rather than built on container/heap because the
// interface-based heap boxes an event allocation on every Push and Pop.
type eventQueue []event

// up places ev at or above the hole at i.
func (q eventQueue) up(i int, ev event) {
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].p.ev = i + 1
		i = parent
	}
	q[i] = ev
	ev.p.ev = i + 1
}

// down places ev at or below the hole at i.
func (q eventQueue) down(i int, ev event) {
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if right := child + 1; right < len(q) && q[right].before(q[child]) {
			child = right
		}
		if !q[child].before(ev) {
			break
		}
		q[i] = q[child]
		q[i].p.ev = i + 1
		i = child
	}
	q[i] = ev
	ev.p.ev = i + 1
}

// push adds the first event of a process that has none queued.
func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	q.up(len(*q)-1, ev)
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top, last := h[0], h[n]
	h[n] = event{} // release the *Process reference
	*q = h[:n]
	top.p.ev = 0
	if n > 0 {
		h[:n].down(0, last)
	}
	return top
}

// remove drops the slot at i.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	gone, last := h[i], h[n]
	h[n] = event{}
	*q = h[:n]
	gone.p.ev = 0
	switch {
	case i == n:
	case last.before(gone):
		h[:n].up(i, last)
	default:
		h[:n].down(i, last)
	}
}

// Engine is a discrete-event simulation driver. It is not safe for
// concurrent use; all interaction happens from the goroutine that calls
// Run plus the process coroutines the engine itself resumes.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	lane    []event // events at now, in seq order from lane[next]; empty once drained
	next    int
	live    int      // processes spawned and not yet finished
	head    *Process // the live processes, linked through Process.prev/next
	idle    *worker  // coroutines whose body returned, linked through worker.idle
	spawned uint64   // the next process's spawn ordinal
	fp      uint64   // timeline fingerprint, see Fingerprint
	resumes uint64   // see Resumes
	running *Process // the process whose body is executing; nil on Run's own stack

	// MaxTime, when non-zero, bounds the simulation; Run returns
	// ErrTimeLimit once the clock would pass it.
	MaxTime Time
}

// ErrTimeLimit is returned by Run when the configured MaxTime is exceeded.
var ErrTimeLimit = errors.New("sim: virtual time limit exceeded")

// FNV-1a's 64-bit parameters, applied to whole words by Fingerprint.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	// 64 events cover a whole one-shot run of a few ranks, which would
	// otherwise grow the queue 1-2-4-...-64 on every fresh engine; 32 hold
	// the widest instant of the benchmarked workloads. One array backs both.
	buf := make([]event, 96)
	return &Engine{queue: buf[:0:64], lane: buf[64:64], fp: fnvOffset}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// schedule queues p's wakeup, the one event p has: its seq becomes p's, so
// whatever p had queued before is stale. An event at now is due after all
// queued so far and the lane holds only now, so it is appended there; a
// timed waiter woken at now thus leaves its timer's slot kept. A later timer
// re-keys the slot in place: up if due before the old key, else down.
func (e *Engine) schedule(p *Process, at Time) {
	e.seq++
	p.seq = e.seq
	ev := event{at: at, seq: e.seq, p: p}
	switch i := p.ev - 1; {
	case at == e.now:
		if e.next > 0 && len(e.lane) == cap(e.lane) {
			e.lane, e.next = e.lane[:copy(e.lane, e.lane[e.next:])], 0
		}
		e.lane = append(e.lane, ev)
	case i < 0:
		e.queue.push(ev)
	case ev.before(e.queue[i]):
		e.queue.up(i, ev)
	default:
		e.queue.down(i, ev)
	}
}

// wait makes w for p short of parking. It is the one place a wait is
// made, whoever asks: Sleep, Cond.Wait and Cond.WaitTimeout from p's body,
// again on p's behalf. A condition's waiters are joined before the timer
// takes its sequence number.
func (e *Engine) wait(p *Process, w Wait) {
	if c := w.Cond; c != nil {
		p.timedOut = false
		c.enqueue(p)
		if w.Untimed {
			return
		}
	}
	e.schedule(p, e.now.Add(max(w.D, 0)))
}

// Spawn creates a process executing fn and schedules it to start at the
// current virtual time. The name is used in diagnostics only.
func (e *Engine) Spawn(name string, fn func(p *Process)) *Process {
	p := &Process{engine: e, name: name, ord: e.spawned, fn: fn, next: e.head}
	e.spawned++
	if e.head != nil {
		e.head.prev = p
	}
	e.head = p
	e.live++
	e.schedule(p, e.now)
	return p
}

// worker is one coroutine. It runs the body of the process the engine
// assigned it, parks on the engine's idle list when that body returns,
// and runs the next assignment when resumed, so a steady state of
// short-lived processes creates no coroutines.
type worker struct {
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	p        *Process // the process whose body is running
	panicked any      // what the body that just ended panicked with; on the way in, what a turn the engine took for p did
	idle     *worker  // the next worker on Engine.idle
}

func newWorker() *worker {
	w := &worker{}
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.run(w.p)
		if !yield(struct{}{}) {
			return // stopped while idle
		}
	}
}

// run executes p's body. A panic is kept for step to report; a
// runtime.Goexit passes through, ends the coroutine, and iter.Pull
// repeats it on the goroutine that called Run.
func (w *worker) run(p *Process) {
	defer func() {
		p.done, p.fn = true, nil
		w.panicked = recover()
	}()
	p.fn(p)
}

// Run drives the simulation until no runnable work remains. It returns:
//   - nil when all processes finished,
//   - ErrDeadlock when live processes remain but none can run,
//   - ErrTimeLimit when MaxTime is exceeded,
//   - or the panic value of a process that panicked, wrapped in an error.
func (e *Engine) Run() error {
	// Parked processes keep their coroutines (a later Run may resume
	// them); idle ones would be unreachable goroutines from here on.
	defer e.stopIdle()
	for {
		var ev event
		if len(e.lane) != 0 && (len(e.queue) == 0 || e.lane[e.next].before(e.queue[0])) {
			if e.MaxTime != 0 && e.now > e.MaxTime {
				return ErrTimeLimit
			}
			ev, e.lane[e.next] = e.lane[e.next], event{} // release the *Process reference
			if e.next++; e.next == len(e.lane) {
				e.lane, e.next = e.lane[:0], 0
			}
		} else if len(e.queue) == 0 {
			if e.live == 0 {
				return nil
			}
			// Every remaining live process must be blocked on a
			// condition with no timeout: a global deadlock.
			return ErrDeadlock
		} else if ev = e.queue[0]; ev.seq == ev.p.seq && e.MaxTime != 0 && ev.at > e.MaxTime {
			// The event stays queued: Run again under a higher MaxTime
			// picks up exactly here.
			return ErrTimeLimit
		} else {
			e.queue.pop()
		}
		p := ev.p
		if ev.seq != p.seq {
			continue // a kept slot, or a timer at now that a signal beat
		}
		e.now = ev.at
		e.fp = (e.fp ^ uint64(ev.at)) * fnvPrime
		e.fp = (e.fp ^ ev.seq) * fnvPrime
		e.fp = (e.fp ^ p.ord) * fnvPrime
		// If this process was blocked on a condition (timed wait),
		// remove it from the waiters list: the timeout fired.
		if c := p.cond; c != nil {
			c.unlink(p)
			p.timedOut = true
		}
		if p.stepper != nil && e.again(p) {
			continue // the engine took the turn and made the next wait: p stays parked
		}
		if err := e.step(p); err != nil {
			return err
		}
	}
}

// again takes p's turn at a wake-up of the wait Await parked it in, where
// step would have resumed p: it runs the Stepper's Next and, if that asks
// for another wait, makes it as p's body would have and reports true: p
// stays parked. A panic in Next is p's own: p is resumed to raise it on its
// own stack (parkWith) and unwind its body.
func (e *Engine) again(p *Process) (again bool) {
	defer func() {
		if r := recover(); r != nil {
			p.w.panicked, again = r, false
		}
	}()
	w, again := p.stepper.Next()
	if again {
		e.wait(p, w)
	}
	return again
}

func (e *Engine) stopIdle() {
	for w := e.idle; w != nil; w = w.idle {
		w.stop()
	}
	e.idle = nil
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

// step runs p until it parks or its body ends.
func (e *Engine) step(p *Process) error {
	w := p.w
	if w == nil { // first dispatch: p needs a coroutine
		if w = e.idle; w != nil {
			e.idle = w.idle
		} else {
			w = newWorker()
		}
		w.p, p.w = p, w
	}
	e.resumes++
	e.running = p
	w.next()
	e.running = nil
	if !p.done {
		return nil
	}
	if i := p.ev - 1; i >= 0 {
		if e.queue[i].seq == p.seq {
			panic(fmt.Sprintf("sim: process %q ended with an event still queued", p.name))
		}
		e.queue.remove(i) // a kept slot
	}
	w.p, p.w = nil, nil
	w.idle, e.idle = e.idle, w
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	e.live--
	if r := w.panicked; r != nil {
		w.panicked = nil
		return fmt.Errorf("sim: process %q panicked: %v", p.name, r)
	}
	return nil
}

// BlockedProcesses returns the names of processes currently blocked on
// conditions, sorted, for deadlock diagnostics.
func (e *Engine) BlockedProcesses() []string {
	var names []string
	for p := e.head; p != nil; p = p.next {
		if p.cond != nil {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// LiveProcesses returns the number of processes that have not finished.
func (e *Engine) LiveProcesses() int { return e.live }

// Fingerprint returns a hash of the timeline so far: the (virtual time,
// sequence number, spawn ordinal of the process) of every event
// dispatched to a process, in dispatch order, whether the process was
// resumed for it or the engine took the turn itself (Process.Await).
// Two runs with equal fingerprints woke the same processes at the same
// times in the same order, so a change that must not alter behaviour must
// not alter this.
func (e *Engine) Fingerprint() uint64 { return e.fp }

// Resumes returns how many times a process coroutine has been resumed so
// far. Every dispatch Fingerprint counts is either a resume or a turn the
// engine took itself for a process parked in Await, so the two together
// say how many of a run's events needed a coroutine switch.
func (e *Engine) Resumes() uint64 { return e.resumes }
