package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// loopAwait is the loop Await is documented to equal, written out in the
// process's body. It returns whether every timed wait's result agreed with
// what TimedOut said in the turn after it.
func loopAwait(p *Process, s Stepper) (agreed bool) {
	agreed = true
	for w, again := s.Next(); again; w, again = s.Next() {
		switch {
		case w.Cond == nil:
			p.Sleep(w.D)
		case w.Untimed:
			w.Cond.Wait(p)
		default:
			agreed = w.Cond.WaitTimeout(p, w.D) == p.TimedOut() && agreed
		}
	}
	return agreed
}

// actorProgram is a seeded random program of 64 processes (and the children
// they spawn) over eight conditions, each process one Stepper whose every
// turn draws from the program's one random source: it may signal,
// broadcast or spawn, and then asks for a sleep, a timed wait or an untimed
// one. A turn taken at another moment than the loop's, or a wait made in
// another order, changes everything after it.
type actorProgram struct {
	t        *testing.T
	e        *Engine
	rng      *rand.Rand
	loops    bool // bodies are hand-written loops, not Await
	conds    []Cond
	left     int   // bodies that have not returned
	turns    []int // Next calls per process, in creation order
	timeouts []int // timed waits that ran out, per process
	spawns   int   // children a turn may still spawn
}

// actor is one process's Stepper.
type actor struct {
	g     *actorProgram
	id    int
	p     *Process
	steps int
	timed bool // the wait that just ended could time out
}

func (a *actor) Next() (Wait, bool) {
	g := a.g
	if g.turns[a.id]++; g.turns[a.id]%16 == 0 {
		checkQueue(g.t, g.e) // O(live processes), so not on every turn
	}
	if a.timed && a.p.TimedOut() {
		g.timeouts[a.id]++
	}
	if a.steps--; a.steps < 0 {
		return Wait{}, false
	}
	switch g.rng.Intn(8) {
	case 0:
		g.conds[g.rng.Intn(len(g.conds))].Signal(g.e)
	case 1:
		g.conds[g.rng.Intn(len(g.conds))].Broadcast(g.e)
	case 2:
		if g.spawns > 0 {
			g.spawns--
			g.e.Spawn("child", g.body(8))
		}
	}
	c := &g.conds[g.rng.Intn(len(g.conds))]
	a.timed = false
	switch g.rng.Intn(5) {
	case 0:
		return Wait{D: Duration(g.rng.Intn(5) - 1)}, true // -1: a negative wait is a zero one
	case 1:
		return Wait{Cond: c, D: 20 * Millisecond, Untimed: true}, true // D means nothing here
	case 2:
		a.timed = true
		return Wait{Cond: c, D: 20 * Millisecond}, true // only ever ended by a signal
	default:
		a.timed = true
		return Wait{Cond: c, D: Duration(g.rng.Intn(5) - 1)}, true
	}
}

func (g *actorProgram) body(steps int) func(*Process) {
	g.left++
	a := &actor{g: g, id: len(g.turns), steps: steps}
	g.turns, g.timeouts = append(g.turns, 0), append(g.timeouts, 0)
	return func(p *Process) {
		a.p = p
		p.Sleep(Duration(a.id % 3)) // ordinary waits before and after the machine's
		if !g.loops {
			p.Await(a)
		} else if !loopAwait(p, a) {
			g.t.Errorf("process %d: TimedOut disagrees with WaitTimeout's result", a.id)
		}
		p.Sleep(1)
		g.left--
	}
}

func runActorProgram(t *testing.T, seed int64, loops bool) *actorProgram {
	g := &actorProgram{t: t, e: NewEngine(), rng: rand.New(rand.NewSource(seed)), loops: loops, conds: make([]Cond, 8), spawns: 200}
	for i := 0; i < 64; i++ {
		g.e.Spawn(fmt.Sprintf("p%d", i), g.body(100))
	}
	g.e.Spawn("ticker", func(p *Process) {
		for g.left > 0 {
			p.Sleep(7)
			for i := range g.conds {
				g.conds[i].Broadcast(g.e)
			}
		}
	})
	if err := g.e.Run(); err != nil {
		t.Fatalf("seed %d, loops %v: Run: %v", seed, loops, err)
	}
	if g.e.Now() >= Time(20*Millisecond) {
		t.Fatalf("seed %d, loops %v: ended at %v: a 20ms wait ran out", seed, loops, g.e.Now())
	}
	return g
}

// TestAwaitMatchesBlocking: Await is the loop its comment gives, event for
// event. The same random program run with the loops written out and with
// Await must dispatch the same (time, seq, process) sequence, end at the
// same time, give every process the same number of turns and the same
// timed-out waits, while resuming each process only to start it, to hand
// it to its machine and to end it. It fails if the engine sets a timer for
// an untimed wait or makes a timed one without taking a sequence number.
func TestAwaitMatchesBlocking(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		want, got := runActorProgram(t, seed, true), runActorProgram(t, seed, false)
		if got.e.Fingerprint() != want.e.Fingerprint() || got.e.Now() != want.e.Now() {
			t.Fatalf("seed %d: Await: fingerprint %#x at %v; loops: %#x at %v",
				seed, got.e.Fingerprint(), got.e.Now(), want.e.Fingerprint(), want.e.Now())
		}
		if !slices.Equal(got.turns, want.turns) || !slices.Equal(got.timeouts, want.timeouts) {
			t.Fatalf("seed %d: per-process turns or time-outs differ:\n got %v %v\nwant %v %v", seed, got.turns, got.timeouts, want.turns, want.timeouts)
		}
		procs, timeouts := uint64(len(got.turns)), 0
		for _, n := range got.timeouts {
			timeouts += n
		}
		if procs < 100 || timeouts < 1000 || want.e.Resumes() < 5*got.e.Resumes() {
			t.Fatalf("seed %d: %d processes, %d time-outs, %d resumes as loops: the program does not exercise Await", seed, procs, timeouts, want.e.Resumes())
		}
		// Each actor: its start, its Sleep, the end of its Await, its last
		// Sleep. The ticker resumes once per tick.
		if ticks := uint64(got.e.Now()+6) / 7; got.e.Resumes() != 4*procs+ticks+1 {
			t.Fatalf("seed %d: %d resumes for %d processes and %d ticks, want %d", seed, got.e.Resumes(), procs, ticks, 4*procs+ticks+1)
		}
	}
}

// waits is a Stepper that asks for the same wait left-1 times.
type waits struct {
	w    Wait
	left int
}

func (s *waits) Next() (Wait, bool) {
	s.left--
	return s.w, s.left > 0
}

// TestAwaitAllocatesNothing: neither Await nor a turn the engine takes
// costs an allocation, whichever wait the turn asks for (a sleep, a timed
// wait ended by a broadcast, an untimed one), measured from inside a
// process body like TestSwitchAllocatesNothing.
func TestAwaitAllocatesNothing(t *testing.T) {
	e := NewEngine()
	c := NewCond("gen")
	machines := make([]*waits, 96)
	for i := range machines {
		s := &waits{left: 1 << 30, w: Wait{D: 1}}
		switch i % 3 {
		case 1:
			s.w = Wait{Cond: c, D: Millisecond}
		case 2:
			s.w = Wait{Cond: c, D: Millisecond, Untimed: true} // D means nothing here
		}
		machines[i] = s
		e.Spawn("machine", func(p *Process) { p.Await(s) })
	}
	e.Spawn("probe", func(p *Process) {
		own := &waits{w: Wait{D: 1}}
		round := func() {
			c.Broadcast(e)
			own.left = 3
			p.Await(own)
		}
		for i := 0; i < 100; i++ {
			round()
		}
		before := e.Resumes()
		if n := testing.AllocsPerRun(2000, round); n != 0 {
			t.Errorf("%v allocations per round of 96 turns and one Await, want 0", n)
		}
		if got := e.Resumes() - before; got != 2001 {
			t.Errorf("%d resumes over 2001 rounds, want only the probe's own", got)
		}
		for _, s := range machines {
			s.left = 1
		}
		c.Broadcast(e)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestUntimedAwaitIsADeadlock: an untimed wait the engine made has no
// timer behind it. When the signal never comes the process is blocked as if
// its body had called Cond.Wait: Run reports ErrDeadlock, BlockedProcesses
// names it, and a later signal lets its machine go on.
func TestUntimedAwaitIsADeadlock(t *testing.T) {
	e := NewEngine()
	never := NewCond("never")
	turns := 0
	s := stepperFunc(func() (Wait, bool) {
		turns++
		return Wait{Cond: never, Untimed: turns == 2}, turns < 3
	})
	e.Spawn("stuck", func(p *Process) { p.Await(s) })
	e.Spawn("other", func(p *Process) { p.Sleep(100) })
	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	if got := e.BlockedProcesses(); !slices.Equal(got, []string{"stuck"}) || never.Waiters() != 1 || turns != 2 {
		t.Fatalf("BlockedProcesses = %v, %d waiters after %d turns, want stuck alone, parked by its second turn", got, never.Waiters(), turns)
	}
	if len(e.queue) != 0 || e.Now() != 100 {
		t.Fatalf("%d events queued at %v: the untimed wait set a timer", len(e.queue), e.Now())
	}
	never.Broadcast(e)
	if err := e.Run(); err != nil || turns != 3 || e.LiveProcesses() != 0 {
		t.Fatalf("Run after the signal = %v after %d turns with %d live processes, want the machine to finish", err, turns, e.LiveProcesses())
	}
}

// stepperFunc adapts a func for tests that need a one-off Stepper.
type stepperFunc func() (Wait, bool)

func (f stepperFunc) Next() (Wait, bool) { return f() }

// TestAwaitPanicIsReported: a panic in Next is the awaiting process's
// panic, whether the engine took the turn or Await did. Run reports it with
// the text of a body panic, the body unwinds (its deferred calls run), and
// the engine is left as TestPanicLeavesEngineConsistent requires.
func TestAwaitPanicIsReported(t *testing.T) {
	for _, at := range []int{1, 3} { // Await's own call of Next; the engine's second
		e := NewEngine()
		never := NewCond("never")
		for i := 0; i < 3; i++ {
			e.Spawn("peer", func(p *Process) { never.Wait(p) })
		}
		unwound, turns := false, 0
		e.Spawn("x", func(p *Process) {
			defer func() { unwound = true }()
			p.Await(stepperFunc(func() (Wait, bool) {
				if turns++; turns == at {
					panic("boom")
				}
				return Wait{Cond: never, D: 1}, true
			}))
			t.Error("Await returned after its Next panicked")
		})
		err := e.Run()
		if err == nil || err.Error() != `sim: process "x" panicked: boom` {
			t.Fatalf("turn %d: Run = %v, want the panic of process x", at, err)
		}
		if !unwound || e.Now() != Time(at-1) {
			t.Fatalf("turn %d: unwound = %v at %v, want x's body unwound at %dns", at, unwound, e.Now(), at-1)
		}
		if got := e.BlockedProcesses(); len(got) != 3 || never.Waiters() != 3 || e.LiveProcesses() != 3 {
			t.Fatalf("turn %d: BlockedProcesses = %v, %d waiters, %d live, want the 3 parked peers", at, got, never.Waiters(), e.LiveProcesses())
		}
		checkQueue(t, e)
		never.Broadcast(e)
		if err := e.Run(); err != nil || e.LiveProcesses() != 0 {
			t.Fatalf("turn %d: Run after the panic = %v with %d live processes, want the peers to finish", at, err, e.LiveProcesses())
		}
	}
}

// TestMaxTimeDuringAwait: a time limit that falls between two turns leaves
// the wait queued (or, untimed, the process among the waiters) with its
// Stepper, and a later Run under a higher limit goes on as if never
// interrupted.
func TestMaxTimeDuringAwait(t *testing.T) {
	run := func(limits ...Time) (fp uint64, end Time, turns int) {
		e := NewEngine()
		var c Cond
		machine := func(w Wait) Stepper {
			return stepperFunc(func() (Wait, bool) {
				turns++
				return w, e.Now() < 300
			})
		}
		for i := 0; i < 4; i++ {
			e.Spawn("sleeper", func(p *Process) { p.Await(machine(Wait{D: Duration(10 + 3*i)})) })
			e.Spawn("waiter", func(p *Process) { p.Await(machine(Wait{Cond: &c, D: Duration(10 + 7*i)})) })
			e.Spawn("blocker", func(p *Process) { p.Await(machine(Wait{Cond: &c, D: 5, Untimed: true})) })
		}
		e.Spawn("signaller", func(p *Process) {
			for p.Now() < 300 {
				p.Sleep(13)
				c.Signal(e)
			}
			c.Broadcast(e)
		})
		for _, limit := range limits {
			e.MaxTime = limit
			before := turns
			if err := e.Run(); !errors.Is(err, ErrTimeLimit) || e.Now() > limit {
				t.Fatalf("Run under MaxTime %v = %v at %v, want ErrTimeLimit", limit, err, e.Now())
			}
			if turns == before || e.LiveProcesses() != 13 {
				t.Fatalf("limit %v: %d turns, %d live processes: not stopped mid-wait", limit, turns-before, e.LiveProcesses())
			}
			checkQueue(t, e)
		}
		e.MaxTime = 0
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return e.Fingerprint(), e.Now(), turns
	}
	fp, end, turns := run()
	if gotFP, gotEnd, gotTurns := run(55, 120, 200); gotFP != fp || gotEnd != end || gotTurns != turns {
		t.Fatalf("interrupted: fingerprint %#x, end %v, %d turns; uninterrupted: %#x, %v, %d", gotFP, gotEnd, gotTurns, fp, end, turns)
	}
}

// TestAwaitResumesOnce: 10 000 turns that ask for the same wait are
// 10 000 dispatches and one resume.
func TestAwaitResumesOnce(t *testing.T) {
	e := NewEngine()
	e.Spawn("poller", func(p *Process) {
		before := e.Resumes()
		p.Await(&waits{w: Wait{D: 1}, left: 10001})
		if got := e.Resumes() - before; got != 1 || p.Now() != 10000 {
			t.Errorf("%d resumes by %v, want 1 by 10us", got, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Resumes() != 2 {
		t.Fatalf("Resumes = %d for one process and one Await, want 2", e.Resumes())
	}
}

// TestParkInsideAgainPanics: every turn but Await's first runs on the
// engine's stack (Engine.again), where there is no coroutine to yield. A
// wait called from it must panic before it touches the queue or a waiter
// list, naming the process, and come back from Run like any other panic of
// that process.
func TestParkInsideAgainPanics(t *testing.T) {
	var c Cond
	for name, block := range map[string]func(p *Process){
		"Sleep":       func(p *Process) { p.Sleep(1) },
		"Wait":        func(p *Process) { c.Wait(p) },
		"WaitTimeout": func(p *Process) { c.WaitTimeout(p, 1) },
		"Await":       func(p *Process) { p.Await(&waits{w: Wait{D: 1}, left: 2}) },
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			e.Spawn("peer", func(p *Process) { p.Sleep(10) })
			e.Spawn("x", func(p *Process) {
				turns := 0
				p.Await(stepperFunc(func() (Wait, bool) {
					if turns++; turns == 2 { // the first turn is on x's own stack
						block(p)
					}
					return Wait{D: 1}, true
				}))
			})
			err := e.Run()
			want := `sim: process "x" panicked: sim: process "x" blocked outside its own body (inside a Stepper's turn, or from another process)`
			if err == nil || err.Error() != want {
				t.Fatalf("Run = %v\nwant %s", err, want)
			}
			checkQueue(t, e)
			if e.LiveProcesses() != 1 || c.Waiters() != 0 {
				t.Fatalf("%d live processes, %d waiters, want the peer alone", e.LiveProcesses(), c.Waiters())
			}
			if err := e.Run(); err != nil || e.Now() != 10 {
				t.Fatalf("Run after the panic = %v at %v, want the peer to finish at 10ns", err, e.Now())
			}
		})
	}
}

// BenchmarkEmptyTurn is the cost of one turn of a poll that finds nothing,
// with 32 processes polling every nanosecond: as a loop in the body (a
// Sleep round trip through the process's coroutine) and as an Await (the
// engine takes the turn).
func BenchmarkEmptyTurn(b *testing.B) {
	for _, mode := range []string{"loop", "Await"} {
		b.Run(mode, func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < 32; i++ {
				s := &waits{w: Wait{D: 1}, left: b.N/32 + 2}
				e.Spawn("poller", func(p *Process) {
					if mode == "loop" {
						loopAwait(p, s)
					} else {
						p.Await(s)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
