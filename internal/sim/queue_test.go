package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The model test holds the engine's queue (heap, lane and kept slots) to
// the plainest queue there is: every pending wakeup in a list, the next one
// found by scanning for the least (at, seq). One seeded program is run on
// both, every turn drawn from the program's own random source, so a single
// event dispatched out of order changes everything after it.

const modelConds = 4

// modelMove is one turn of a model-test actor: it may wake one or all
// waiters of a condition and spawn a child, then it waits or ends. A wait
// with cond -1 is a sleep.
type modelMove struct {
	signal, broadcast, cond int
	spawn, untimed, end     bool
	d                       Duration
}

// modelProgram draws the moves. Each run of a seed has its own, so both
// runs see the same moves as long as they take the same turns.
type modelProgram struct {
	rng    *rand.Rand
	spawns int // children the program may still spawn
	left   int // actors that have not ended; the ticker stops at zero
}

func (g *modelProgram) move(steps int) modelMove {
	m := modelMove{signal: -1, broadcast: -1, cond: -1, end: steps == 0}
	switch g.rng.Intn(6) {
	case 0:
		m.signal = g.rng.Intn(modelConds)
	case 1:
		m.broadcast = g.rng.Intn(modelConds)
	case 2:
		if m.spawn = g.spawns > 0; m.spawn {
			g.spawns--
			g.left++
		}
	}
	// Short waits keep falling on one instant; the long ones are always
	// cut short, by a peer or the ticker, and leave their slots kept.
	m.d = []Duration{-1, 0, 0, 1, 2, 3, 1000}[g.rng.Intn(7)]
	switch g.rng.Intn(4) {
	case 0:
	case 1:
		m.cond, m.untimed = g.rng.Intn(modelConds), true
	default:
		m.cond = g.rng.Intn(modelConds)
	}
	if m.end {
		g.left--
	}
	return m
}

// modelDispatch is one dispatch as both runs log it: the time, the spawn
// ordinal of the process and, after a timed condition wait, whether it
// timed out.
type modelDispatch struct {
	at       Time
	ord      uint64
	timedOut bool
}

const (
	modelActors = 16
	modelSteps  = 24
	modelTick   = 3
)

// refEngine is the reference: a list of pending wakeups, one per process at
// most, and conditions as FIFO lists of process ordinals.
type refEngine struct {
	now     Time
	seq     uint64
	fp      uint64
	pending []refEvent
	waiters [modelConds][]uint64
	blocked []int // per process, 1 + the condition it waits on, 0 if none
}

type refEvent struct {
	at       Time
	seq, ord uint64
}

func (r *refEngine) schedule(ord uint64, at Time) {
	r.seq++
	r.pending = slices.DeleteFunc(r.pending, func(ev refEvent) bool { return ev.ord == ord })
	r.pending = append(r.pending, refEvent{at: at, seq: r.seq, ord: ord})
}

func (r *refEngine) wake(c int, all bool) {
	for len(r.waiters[c]) > 0 {
		ord := r.waiters[c][0]
		r.waiters[c] = r.waiters[c][1:]
		r.blocked[ord] = 0
		r.schedule(ord, r.now)
		if !all {
			return
		}
	}
}

// run plays g on the reference and returns its dispatches and fingerprint.
func (r *refEngine) run(g *modelProgram) ([]modelDispatch, uint64) {
	r.fp = fnvOffset
	steps := []int{0}
	r.blocked = []int{0}
	spawn := func() {
		steps, r.blocked = append(steps, modelSteps), append(r.blocked, 0)
		r.schedule(uint64(len(steps)-1), r.now)
	}
	r.schedule(0, 0) // the ticker
	for i := 0; i < modelActors; i++ {
		spawn()
	}
	var log []modelDispatch
	for len(r.pending) > 0 {
		i := 0
		for j, ev := range r.pending {
			if ev.at < r.pending[i].at || ev.at == r.pending[i].at && ev.seq < r.pending[i].seq {
				i = j
			}
		}
		ev := r.pending[i]
		r.pending = slices.Delete(r.pending, i, i+1)
		r.now = ev.at
		r.fp = (r.fp ^ uint64(ev.at)) * fnvPrime
		r.fp = (r.fp ^ ev.seq) * fnvPrime
		r.fp = (r.fp ^ ev.ord) * fnvPrime
		d := modelDispatch{at: ev.at, ord: ev.ord}
		if c := r.blocked[d.ord]; c != 0 {
			r.waiters[c-1] = slices.DeleteFunc(r.waiters[c-1], func(o uint64) bool { return o == d.ord })
			r.blocked[d.ord], d.timedOut = 0, true
		}
		log = append(log, d)
		if d.ord == 0 {
			for c := range r.waiters {
				r.wake(c, true)
			}
			if g.left > 0 {
				r.schedule(0, r.now+modelTick)
			}
			continue
		}
		m := g.move(steps[d.ord])
		steps[d.ord]--
		if m.signal >= 0 {
			r.wake(m.signal, false)
		}
		if m.broadcast >= 0 {
			r.wake(m.broadcast, true)
		}
		if m.spawn {
			spawn()
		}
		switch {
		case m.end:
		case m.cond < 0:
			r.schedule(d.ord, r.now.Add(max(m.d, 0)))
		default:
			r.waiters[m.cond] = append(r.waiters[m.cond], d.ord)
			r.blocked[d.ord] = m.cond + 1
			if !m.untimed {
				r.schedule(d.ord, r.now.Add(max(m.d, 0)))
			}
		}
	}
	return log, r.fp
}

// modelRun is the same program on an Engine, each actor a Stepper.
type modelRun struct {
	t     *testing.T
	e     *Engine
	g     *modelProgram
	conds [modelConds]Cond
	log   []modelDispatch
	cover map[string]int // how often each edge case of the queue came up
	// joined numbers the condition waits in the order they are made, and
	// ticket holds each waiter's number: a condition's waiters stand in
	// ticket order. unlinked marks the conditions a timed-out waiter has
	// left since their last broadcast.
	joined   int
	ticket   map[*Process]int
	unlinked [modelConds]bool
}

type modelActor struct {
	r     *modelRun
	p     *Process
	steps int
	timed bool // the wait that just ended could time out
	cond  int  // the condition of that wait
}

// list returns c's waiters, oldest first.
func (c *Cond) list() []*Process {
	var ps []*Process
	for p := c.head; p != nil; p = p.wnext {
		ps = append(ps, p)
	}
	return ps
}

// timedOut counts where the timed-out waiter p stood among the waiters of
// condition c it has just left, if it left any behind: at their head, in
// their middle or at their tail.
func (r *modelRun) timedOut(c int, p *Process) {
	left := r.conds[c].list()
	if len(left) == 0 {
		return
	}
	ahead := 0
	for _, q := range left {
		if r.ticket[q] < r.ticket[p] {
			ahead++
		}
	}
	switch ahead {
	case 0:
		r.cover["timed-out waiter unlinked from the head"]++
	case len(left):
		r.cover["timed-out waiter unlinked from the tail"]++
	default:
		r.cover["timed-out waiter unlinked from the middle"]++
	}
	r.unlinked[c] = true
}

// broadcast wakes every waiter of condition c.
func (r *modelRun) broadcast(c int) {
	if r.unlinked[c] && r.conds[c].head != nil {
		r.cover["broadcast after an unlink"]++
	}
	r.unlinked[c] = false
	r.conds[c].Broadcast(r.e)
}

func (r *modelRun) spawn() {
	a := &modelActor{r: r, steps: modelSteps}
	r.e.Spawn("actor", func(p *Process) {
		a.p = p
		p.Await(a)
	})
}

// beaten names what a wake of q cuts short: its timer in the heap, due now
// or later, its timer at now in the lane, or nothing (an untimed wait).
func (r *modelRun) beaten(q *Process) string {
	e := r.e
	if i := q.ev - 1; i >= 0 && e.queue[i].seq == q.seq {
		if e.queue[i].at == e.now {
			return "signal beats a timer due now"
		}
		return "signal beats a timer due later"
	}
	if slices.ContainsFunc(e.lane[e.next:], func(ev event) bool { return ev.seq == q.seq }) {
		return "signal beats a timer in the lane"
	}
	return ""
}

func (a *modelActor) Next() (Wait, bool) {
	r, p := a.r, a.p
	checkQueue(r.t, r.e)
	r.log = append(r.log, modelDispatch{at: p.Now(), ord: p.ord, timedOut: a.timed && p.TimedOut()})
	if a.timed && p.TimedOut() {
		r.timedOut(a.cond, p)
	}
	m := r.g.move(a.steps)
	a.steps--
	if m.signal >= 0 && r.conds[m.signal].head != nil {
		r.cover[r.beaten(r.conds[m.signal].head)]++
		r.conds[m.signal].Signal(r.e)
	}
	if m.broadcast >= 0 {
		for _, q := range r.conds[m.broadcast].list() {
			r.cover[r.beaten(q)]++
		}
		r.broadcast(m.broadcast)
	}
	if m.spawn {
		r.spawn()
	}
	kept := p.ev != 0 // p runs, so its slot holds no event
	if m.cond >= 0 {
		r.joined++
		r.ticket[p], a.cond = r.joined, m.cond
	}
	switch {
	case m.end:
		if kept {
			r.cover["body ends with a kept slot"]++
		}
		return Wait{}, false
	case m.cond < 0:
		if m.d <= 0 {
			r.cover["Sleep(0)"]++
		}
		a.timed = false
		return Wait{D: m.d}, true
	case m.untimed:
		if kept {
			r.cover["untimed wait after a wake"]++
		}
		a.timed = false
		return Wait{Cond: &r.conds[m.cond], Untimed: true}, true
	default:
		if m.d <= 0 {
			r.cover["WaitTimeout(0)"]++
		}
		a.timed = true
		return Wait{Cond: &r.conds[m.cond], D: m.d}, true
	}
}

// run plays the program on the engine, stopping at every limit in turn
// before running to the end.
func (r *modelRun) run(limits []Time) {
	r.e.Spawn("ticker", func(p *Process) {
		for {
			r.log = append(r.log, modelDispatch{at: p.Now(), ord: p.ord})
			for c := range r.conds {
				r.broadcast(c)
			}
			if r.g.left == 0 {
				return
			}
			p.Sleep(modelTick)
		}
	})
	for i := 0; i < modelActors; i++ {
		r.spawn()
	}
	for _, limit := range limits {
		r.e.MaxTime = limit
		if err := r.e.Run(); !errors.Is(err, ErrTimeLimit) {
			r.t.Fatalf("Run under MaxTime %v = %v, want ErrTimeLimit", limit, err)
		}
		checkQueue(r.t, r.e)
		if slices.ContainsFunc(r.e.queue, func(ev event) bool { return ev.seq != ev.p.seq }) {
			r.cover["MaxTime stop with kept slots"]++
		}
	}
	r.e.MaxTime = 0
	if err := r.e.Run(); err != nil {
		r.t.Fatalf("Run: %v", err)
	}
}

// TestQueueMatchesModel runs 20 seeded programs of a ticker and 16 actors
// (and up to 16 children) over four conditions, on the engine and on the
// list reference, and requires the same dispatches in the same order and
// the same fingerprint. Every third program is stopped by MaxTime at drawn
// instants and resumed. The corpus must come up with every edge case the
// lane, the kept slots and the waiter lists have.
func TestQueueMatchesModel(t *testing.T) {
	cover := map[string]int{}
	for seed := int64(1); seed <= 20; seed++ {
		var ref refEngine
		want, wantFP := ref.run(&modelProgram{rng: rand.New(rand.NewSource(seed)), spawns: modelActors, left: modelActors})
		r := &modelRun{t: t, e: NewEngine(), g: &modelProgram{rng: rand.New(rand.NewSource(seed)), spawns: modelActors, left: modelActors}, cover: cover, ticket: map[*Process]int{}}
		var limits []Time
		if seed%3 == 0 {
			for at := Time(1 + seed%5); at < ref.now; at += Time(1 + seed%7) {
				limits = append(limits, at)
			}
		}
		r.run(limits)
		if i := mismatch(r.log, want); i >= 0 || r.e.Fingerprint() != wantFP {
			t.Fatalf("seed %d: dispatch %d of %d differs from the reference's %d (fingerprint %#x, want %#x):\n got %v\nwant %v",
				seed, i, len(r.log), len(want), r.e.Fingerprint(), wantFP, r.log[max(i-3, 0):min(i+3, len(r.log))], want[max(i-3, 0):min(i+3, len(want))])
		}
		if len(r.e.queue) != 0 || len(r.e.lane) != 0 {
			t.Fatalf("seed %d: %d slots and %d lane events after Run", seed, len(r.e.queue), len(r.e.lane))
		}
	}
	for _, c := range []string{"Sleep(0)", "WaitTimeout(0)", "signal beats a timer due later", "signal beats a timer due now",
		"signal beats a timer in the lane", "untimed wait after a wake", "body ends with a kept slot", "MaxTime stop with kept slots",
		"timed-out waiter unlinked from the head", "timed-out waiter unlinked from the middle",
		"timed-out waiter unlinked from the tail", "broadcast after an unlink"} {
		if cover[c] < 10 {
			t.Errorf("%q came up %d times in the corpus, want 10 or more", c, cover[c])
		}
	}
	t.Logf("edge cases covered: %v", cover)
}

// mismatch returns the first index at which got and want differ, or -1.
func mismatch(got, want []modelDispatch) int {
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			return i
		}
	}
	return -1
}

// TestKeptSlotIsNoEvent: a kept slot past MaxTime is not an event. A waiter
// woken long before its timer and then blocked for good leaves only its
// kept slot behind, so Run reports the deadlock, not the time limit, and
// after a signal the run goes on as if never stopped.
func TestKeptSlotIsNoEvent(t *testing.T) {
	e := NewEngine()
	var c, never Cond
	var order []string
	e.Spawn("w", func(p *Process) {
		c.WaitTimeout(p, 100)
		never.Wait(p) // the timer's slot stays kept at 100
		order = append(order, fmt.Sprintf("w@%v", p.Now()))
	})
	e.Spawn("s", func(p *Process) {
		p.Sleep(1)
		c.Signal(e)
	})
	e.MaxTime = 50
	if err := e.Run(); !errors.Is(err, ErrDeadlock) || e.Now() != 1 || len(e.queue) != 0 {
		t.Fatalf("Run = %v at %v with %d slots, want ErrDeadlock at 1ns with none", err, e.Now(), len(e.queue))
	}
	e.Spawn("late", func(p *Process) {
		p.Sleep(200)
		never.Signal(e)
	})
	if err := e.Run(); !errors.Is(err, ErrTimeLimit) || e.Now() != 1 {
		t.Fatalf("Run = %v at %v, want ErrTimeLimit at 1ns", err, e.Now())
	}
	e.MaxTime = 0
	if err := e.Run(); err != nil || !slices.Equal(order, []string{"w@201ns"}) {
		t.Fatalf("Run = %v with %v, want w woken at 201ns", err, order)
	}
}
