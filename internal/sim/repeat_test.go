package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// loopSleepWhile and loopWaitWhile are the loops the two repeating waits
// are documented to equal, written out in the process's body.
func loopSleepWhile(p *Process, d Duration, r Repeater) {
	for again := true; again; d, again = r.Again() {
		p.Sleep(d)
	}
}

func loopWaitWhile(c *Cond, p *Process, d Duration, r Repeater) {
	for again := true; again; d, again = r.Again() {
		c.WaitTimeout(p, d)
	}
}

// pollProgram is a seeded random program of 64 processes (and the children
// they spawn) over eight conditions that sleep, wait, signal, broadcast,
// spawn and poll. A poll is a repeating wait whose every turn draws from
// the program's one random source and may itself signal, broadcast or
// spawn, so a turn taken at another moment than the loop's changes
// everything after it.
type pollProgram struct {
	t      *testing.T
	e      *Engine
	rng    *rand.Rand
	loops  bool // polls are hand-written loops, not SleepWhile / WaitWhile
	conds  []Cond
	left   int   // bodies that have not returned
	turns  []int // Again calls per process, in creation order
	spawns int   // children a turn may still spawn
}

// poller is one process's Repeater.
type poller struct {
	g    *pollProgram
	id   int
	left int   // turns before the poll ends
	on   *Cond // the condition a WaitWhile is on
}

func (r *poller) Again() (Duration, bool) {
	g := r.g
	if g.turns[r.id]++; g.turns[r.id]%16 == 0 {
		checkQueue(g.t, g.e) // O(live processes), so not on every turn
	}
	switch g.rng.Intn(8) {
	case 0:
		g.conds[g.rng.Intn(len(g.conds))].Signal(g.e)
	case 1:
		g.conds[g.rng.Intn(len(g.conds))].Broadcast(g.e)
	case 2:
		if r.on != nil {
			r.on.Broadcast(g.e) // the poller itself is not among the waiters now
		}
	case 3:
		if g.spawns > 0 {
			g.spawns--
			g.e.Spawn("turnchild", g.body(8, false))
		}
	}
	r.left--
	return Duration(g.rng.Intn(5) - 1), r.left > 0 // -1: a negative wait is a zero one
}

func (g *pollProgram) body(steps int, parent bool) func(*Process) {
	g.left++
	r := &poller{g: g, id: len(g.turns)}
	g.turns = append(g.turns, 0)
	return func(p *Process) {
		for i := 0; i < steps; i++ {
			c := &g.conds[g.rng.Intn(len(g.conds))]
			timedOut := false
			switch g.rng.Intn(12) {
			case 0:
				p.Sleep(Duration(g.rng.Intn(4)))
			case 1:
				c.Wait(p)
			case 2:
				timedOut = c.WaitTimeout(p, Duration(g.rng.Intn(4)))
			case 3:
				timedOut = c.WaitTimeout(p, 20*Millisecond)
			case 4:
				c.Signal(g.e)
			case 5:
				c.Broadcast(g.e)
			case 6:
				if parent {
					p.Spawn("child", g.body(8, false))
				}
			case 7, 8:
				r.left, r.on = 1+g.rng.Intn(6), nil
				d := Duration(g.rng.Intn(4))
				if g.loops {
					loopSleepWhile(p, d, r)
				} else {
					p.SleepWhile(d, r)
				}
			default:
				r.left, r.on = 1+g.rng.Intn(6), c
				d := Duration(g.rng.Intn(4))
				if g.rng.Intn(2) == 0 {
					d = 20 * Millisecond // only ever ended by a signal
				}
				if g.loops {
					loopWaitWhile(c, p, d, r)
				} else {
					c.WaitWhile(p, d, r)
				}
			}
			if timedOut {
				p.Sleep(1)
			}
		}
		g.left--
	}
}

func runPollProgram(t *testing.T, seed int64, loops bool) *pollProgram {
	g := &pollProgram{t: t, e: NewEngine(), rng: rand.New(rand.NewSource(seed)), loops: loops, conds: make([]Cond, 8), spawns: 200}
	for i := 0; i < 64; i++ {
		g.e.Spawn(fmt.Sprintf("p%d", i), g.body(100, true))
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

// TestRepeatingWaitMatchesLoop: SleepWhile and WaitWhile are the loops
// their comments give, event for event. The same random program run with
// the loops written out and with the repeating waits must dispatch the
// same (time, seq, process) sequence, end at the same time and give every
// process the same number of turns, while resuming processes far less
// often. It fails if the engine re-joins a condition's waiters before it
// calls Again (the poller's own broadcast then wakes it) or re-arms a wait
// without taking a sequence number.
func TestRepeatingWaitMatchesLoop(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		want, got := runPollProgram(t, seed, true), runPollProgram(t, seed, false)
		if got.e.Fingerprint() != want.e.Fingerprint() || got.e.Now() != want.e.Now() {
			t.Errorf("seed %d: repeating waits end at %v with fingerprint %#x, the loops at %v with %#x",
				seed, got.e.Now(), got.e.Fingerprint(), want.e.Now(), want.e.Fingerprint())
		}
		if !slices.Equal(got.turns, want.turns) {
			t.Errorf("seed %d: processes took other numbers of turns than in the loops", seed)
		}
		turns := 0
		for _, n := range want.turns {
			turns += n
		}
		if saved := want.e.Resumes() - got.e.Resumes(); turns < 5000 || saved < uint64(turns)/2 {
			t.Errorf("seed %d: %d turns, %d resumes with loops, %d with repeating waits: the program does not exercise empty turns",
				seed, turns, want.e.Resumes(), got.e.Resumes())
		}
	}
}

// TestRepeatingWaitAllocatesNothing: a turn the engine takes costs no
// allocation, whether a broadcast ended it (64 waiters re-joining the
// condition) or a timer did (32 sleepers), measured from inside a process
// body like TestSwitchAllocatesNothing.
func TestRepeatingWaitAllocatesNothing(t *testing.T) {
	e := NewEngine()
	c := NewCond("gen")
	stop, tick := false, &countdown{left: 1 << 30}
	untilStop := againFunc(func() (Duration, bool) { return Millisecond, !stop })
	for i := 0; i < 64; i++ {
		e.Spawn("waiter", func(p *Process) { c.WaitWhile(p, Millisecond, untilStop) })
	}
	for i := 0; i < 32; i++ {
		e.Spawn("sleeper", func(p *Process) { p.SleepWhile(1, tick) })
	}
	e.Spawn("probe", func(p *Process) {
		round := func() {
			c.Broadcast(e)
			p.Sleep(1)
		}
		for i := 0; i < 100; i++ {
			round()
		}
		before := e.Resumes()
		if n := testing.AllocsPerRun(2000, round); n != 0 {
			t.Errorf("%v allocations per round of 96 empty turns, want 0", n)
		}
		if got := e.Resumes() - before; got != 2001 {
			t.Errorf("%d resumes over 2001 rounds, want only the probe's own", got)
		}
		stop, tick.left = true, 1
		c.Broadcast(e)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// countdown is a Repeater that repeats a 1 ns wait left-1 times.
type countdown struct{ left int }

func (c *countdown) Again() (Duration, bool) {
	c.left--
	return 1, c.left > 0
}

// TestRepeatingWaitResumesOnce: 10 000 empty turns are 10 000 dispatches
// and one resume.
func TestRepeatingWaitResumesOnce(t *testing.T) {
	e := NewEngine()
	e.Spawn("poller", func(p *Process) {
		before := e.Resumes()
		p.SleepWhile(1, &countdown{left: 10001})
		if got := e.Resumes() - before; got != 1 || p.Now() != 10001 {
			t.Errorf("%d resumes by %v, want 1 by 10.001us", got, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Resumes() != 2 {
		t.Fatalf("Resumes = %d for one process and one repeating wait, want 2", e.Resumes())
	}
}

// againFunc adapts a func for tests that need a one-off Again.
type againFunc func() (Duration, bool)

func (f againFunc) Again() (Duration, bool) { return f() }

// TestAgainPanicIsReported: a panic in Again is the waiting process's
// panic. Run reports it with the text of a body panic, the body unwinds
// (its deferred calls run), and the engine is left as
// TestPanicLeavesEngineConsistent requires.
func TestAgainPanicIsReported(t *testing.T) {
	e := NewEngine()
	never := NewCond("never")
	for i := 0; i < 3; i++ {
		e.Spawn("peer", func(p *Process) { never.Wait(p) })
	}
	unwound := false
	turns := 0
	e.Spawn("x", func(p *Process) {
		defer func() { unwound = true }()
		never.WaitWhile(p, 1, againFunc(func() (Duration, bool) {
			if turns++; turns == 3 {
				panic("boom")
			}
			return 1, true
		}))
		t.Error("WaitWhile returned after its Again panicked")
	})
	err := e.Run()
	if err == nil || err.Error() != `sim: process "x" panicked: boom` {
		t.Fatalf("Run = %v, want the panic of process x", err)
	}
	if !unwound || e.Now() != 3 {
		t.Fatalf("unwound = %v at %v, want x's body unwound at 3ns", unwound, e.Now())
	}
	if got := e.LiveProcesses(); got != 3 {
		t.Fatalf("LiveProcesses = %d after the panic, want the 3 parked peers", got)
	}
	if got := e.BlockedProcesses(); len(got) != 3 || never.Waiters() != 3 {
		t.Fatalf("BlockedProcesses = %v, %d waiters, want the 3 parked peers", got, never.Waiters())
	}
	checkQueue(t, e)

	never.Broadcast(e)
	if err := e.Run(); err != nil || e.LiveProcesses() != 0 {
		t.Fatalf("Run after the panic = %v with %d live processes, want the peers to finish", err, e.LiveProcesses())
	}
}

// TestParkInsideAgainPanics: Again runs on the engine's stack, where there
// is no coroutine to yield. A wait called from it must panic before it
// touches the queue or a waiter list, naming the process, and come back
// from Run like any other panic of that process.
func TestParkInsideAgainPanics(t *testing.T) {
	var c Cond
	for name, block := range map[string]func(p *Process){
		"Sleep":       func(p *Process) { p.Sleep(1) },
		"Wait":        func(p *Process) { c.Wait(p) },
		"WaitTimeout": func(p *Process) { c.WaitTimeout(p, 1) },
		"SleepWhile":  func(p *Process) { p.SleepWhile(1, new(countdown)) },
		"WaitWhile":   func(p *Process) { c.WaitWhile(p, 1, new(countdown)) },
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			e.Spawn("peer", func(p *Process) { p.Sleep(10) })
			e.Spawn("x", func(p *Process) {
				p.SleepWhile(1, againFunc(func() (Duration, bool) {
					block(p)
					return 1, true
				}))
			})
			err := e.Run()
			want := `sim: process "x" panicked: sim: process "x" blocked outside its own body (inside an Again, or from another process)`
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

// TestMaxTimeDuringRepeatingWait: a time limit that falls between two
// turns leaves the wait queued with its Repeater, and a later Run under a
// higher limit goes on as if never interrupted.
func TestMaxTimeDuringRepeatingWait(t *testing.T) {
	run := func(limits ...Time) (fp uint64, end Time, turns int) {
		e := NewEngine()
		var c Cond
		count := againFunc(func() (Duration, bool) {
			turns++
			return 10, e.Now() < 300
		})
		for i := 0; i < 4; i++ {
			e.Spawn("sleeper", func(p *Process) { p.SleepWhile(Duration(3*i), count) })
			e.Spawn("waiter", func(p *Process) { c.WaitWhile(p, Duration(7*i), count) })
		}
		e.Spawn("signaller", func(p *Process) {
			for p.Now() < 300 {
				p.Sleep(13)
				c.Signal(e)
			}
		})
		for _, limit := range limits {
			e.MaxTime = limit
			before := turns
			if err := e.Run(); !errors.Is(err, ErrTimeLimit) || e.Now() > limit {
				t.Fatalf("Run under MaxTime %v = %v at %v, want ErrTimeLimit", limit, err, e.Now())
			}
			if turns == before || e.LiveProcesses() != 9 {
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

// BenchmarkEmptyTurn is the cost of one turn of a poll that finds nothing,
// with 32 processes polling every nanosecond: as a loop in the body (a
// Sleep round trip through the process's coroutine) and as a SleepWhile
// (the engine takes the turn).
func BenchmarkEmptyTurn(b *testing.B) {
	for _, mode := range []string{"loop", "SleepWhile"} {
		b.Run(mode, func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < 32; i++ {
				r := &countdown{left: b.N/32 + 1}
				e.Spawn("poller", func(p *Process) {
					if mode == "loop" {
						loopSleepWhile(p, 1, r)
					} else {
						p.SleepWhile(1, r)
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
