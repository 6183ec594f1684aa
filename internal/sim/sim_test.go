package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var end Time
	e.Spawn("sleeper", func(p *Process) {
		p.Sleep(5 * Microsecond)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != Time(5*Microsecond) {
		t.Fatalf("end = %v, want 5us", end)
	}
}

func TestInterleavingIsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		for _, spec := range []struct {
			name string
			d    Duration
		}{{"a", 3}, {"b", 1}, {"c", 2}, {"d", 1}} {
			spec := spec
			e.Spawn(spec.name, func(p *Process) {
				p.Sleep(spec.d)
				order = append(order, spec.name)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return order
	}
	first := run()
	want := []string{"b", "d", "c", "a"} // ties broken by spawn order
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
	for i := 0; i < 10; i++ {
		got := run()
		for j := range want {
			if got[j] != first[j] {
				t.Fatalf("run %d diverged: %v vs %v", i, got, first)
			}
		}
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	e := NewEngine()
	c := NewCond("c")
	var woke []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Process) {
			c.Wait(p)
			woke = append(woke, name)
		})
	}
	e.Spawn("signaler", func(p *Process) {
		p.Sleep(10)
		c.Signal(p.engine)
		p.Sleep(10)
		c.Broadcast(p.engine)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(woke) != 3 || woke[0] != "w1" {
		t.Fatalf("woke = %v, want w1 first then all", woke)
	}
}

func TestWaitTimeout(t *testing.T) {
	e := NewEngine()
	c := NewCond("never")
	var timedOut bool
	var at Time
	e.Spawn("waiter", func(p *Process) {
		timedOut = c.WaitTimeout(p, 7*Microsecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !timedOut {
		t.Fatal("expected timeout")
	}
	if at != Time(7*Microsecond) {
		t.Fatalf("woke at %v, want 7us", at)
	}
	if c.Waiters() != 0 {
		t.Fatalf("stale waiter left on cond: %d", c.Waiters())
	}
}

func TestTimeoutCancelledBySignal(t *testing.T) {
	e := NewEngine()
	c := NewCond("c")
	var timedOut bool
	var wakes int
	e.Spawn("waiter", func(p *Process) {
		timedOut = c.WaitTimeout(p, 100*Microsecond)
		wakes++
		// Sleep past the original timeout to ensure the stale timer
		// does not wake us again.
		p.Sleep(200 * Microsecond)
	})
	e.Spawn("signaler", func(p *Process) {
		p.Sleep(1 * Microsecond)
		c.Signal(p.engine)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if timedOut {
		t.Fatal("signalled wait reported timeout")
	}
	if wakes != 1 {
		t.Fatalf("wakes = %d, want 1", wakes)
	}
}

func TestGlobalDeadlockDetected(t *testing.T) {
	e := NewEngine()
	a := NewCond("a")
	b := NewCond("b")
	e.Spawn("p1", func(p *Process) {
		a.Wait(p)
		b.Signal(p.engine)
	})
	e.Spawn("p2", func(p *Process) {
		b.Wait(p)
		a.Signal(p.engine)
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if n := len(e.BlockedProcesses()); n != 2 {
		t.Fatalf("blocked = %d, want 2", n)
	}
}

func TestNoDeadlockWithTimedWaiter(t *testing.T) {
	e := NewEngine()
	a := NewCond("a")
	e.Spawn("p1", func(p *Process) {
		a.Wait(p)
	})
	e.Spawn("p2", func(p *Process) {
		if !a.WaitTimeout(p, 5) {
			t.Error("expected timeout")
		}
		a.Signal(p.engine)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMaxTime(t *testing.T) {
	e := NewEngine()
	e.MaxTime = Time(1 * Millisecond)
	e.Spawn("long", func(p *Process) {
		for {
			p.Sleep(100 * Microsecond)
		}
	})
	if err := e.Run(); !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
}

// TestMaxTimeKeepsCrossingEvent: the event that would cross MaxTime
// stays queued, so raising the limit and calling Run again resumes the
// sleeper instead of reporting a deadlock with the sleeper still live.
func TestMaxTimeKeepsCrossingEvent(t *testing.T) {
	e := NewEngine()
	e.MaxTime = 10
	woke := false
	e.Spawn("sleeper", func(p *Process) {
		p.Sleep(20)
		woke = true
	})
	if err := e.Run(); !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("first Run = %v, want ErrTimeLimit", err)
	}
	e.MaxTime = 100
	if err := e.Run(); err != nil {
		t.Fatalf("second Run = %v, want nil", err)
	}
	if !woke || e.Now() != 20 {
		t.Fatalf("woke = %v at %v, want the sleeper resumed at 20ns", woke, e.Now())
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Process) {
		p.Sleep(1)
		panic("boom")
	})
	err := e.Run()
	if err == nil || errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want panic error", err)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	var childRan bool
	e.Spawn("parent", func(p *Process) {
		p.Spawn("child", func(c *Process) {
			c.Sleep(3)
			childRan = true
		})
		p.Sleep(10)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !childRan {
		t.Fatal("child did not run")
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2500, "2.500us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

// Property: for any set of sleep durations, processes complete in
// nondecreasing order of their total sleep time, and the final clock
// equals the maximum.
func TestSleepOrderingProperty(t *testing.T) {
	f := func(ds []uint16) bool {
		if len(ds) == 0 {
			return true
		}
		if len(ds) > 64 {
			ds = ds[:64]
		}
		e := NewEngine()
		type rec struct {
			d   Duration
			end Time
		}
		recs := make([]rec, len(ds))
		var max Duration
		for i, d := range ds {
			i := i
			dur := Duration(d)
			if dur > max {
				max = dur
			}
			e.Spawn("p", func(p *Process) {
				p.Sleep(dur)
				recs[i] = rec{d: dur, end: p.Now()}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if e.Now() != Time(max) {
			return false
		}
		for _, r := range recs {
			if r.end != Time(r.d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBarrier pins the poisonable barrier's three behaviours: a
// generation releases on its last arrival (and the barrier is reusable),
// Poison releases blocked waiters with false, and a poisoned barrier
// never blocks again.
func TestBarrier(t *testing.T) {
	e := NewEngine()
	b := NewBarrier("b", 3)
	released := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("member", func(p *Process) {
			for gen := 0; gen < 2; gen++ {
				p.Sleep(Duration(10 * (i + 1)))
				if !b.Wait(p) {
					t.Errorf("member %d gen %d: healthy barrier returned false", i, gen)
				}
			}
			released[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Gen 0 releases at t=30 (the slowest arrival); gen 1 at 30+30.
	for i, at := range released {
		if at != 60 {
			t.Fatalf("member %d released at %v, want 60 (last arrival of the second generation)", i, at)
		}
	}

	e = NewEngine()
	b = NewBarrier("b", 3)
	results := map[string]bool{}
	for _, name := range []string{"w1", "w2"} {
		name := name
		e.Spawn(name, func(p *Process) { results[name] = b.Wait(p) })
	}
	e.Spawn("poisoner", func(p *Process) {
		p.Sleep(5)
		b.Poison(p.Engine())
		// A poisoned barrier returns at once, even though the third
		// member never arrived.
		results["late"] = b.Wait(p)
		if p.Now() != 5 {
			t.Errorf("Wait on a poisoned barrier blocked until %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run after poison: %v", err)
	}
	if len(results) != 3 || results["w1"] || results["w2"] || results["late"] {
		t.Fatalf("poisoned waits = %v, want all three false", results)
	}
}

func TestRunRanks(t *testing.T) {
	// All ranks run, each with its own rank number.
	e := NewEngine()
	ran := make([]bool, 4)
	if err := e.RunRanks("ok", len(ran), func(p *Process, rank int) error {
		p.Sleep(Duration(rank))
		ran[rank] = true
		return nil
	}); err != nil {
		t.Fatalf("RunRanks: %v", err)
	}
	for rank, ok := range ran {
		if !ok {
			t.Fatalf("rank %d did not run", rank)
		}
	}

	// A rank that gives up strands its peer on the barrier: the body
	// error is returned, not the deadlock it causes.
	e = NewEngine()
	b := NewBarrier("b", 2)
	errBody := errors.New("rank 1 gave up")
	err := e.RunRanks("fail", 2, func(p *Process, rank int) error {
		if rank == 1 {
			return errBody
		}
		b.Wait(p)
		return nil
	})
	if err != errBody {
		t.Fatalf("RunRanks = %v, want the body error", err)
	}

	// A pure deadlock is ErrDeadlock naming the blocked processes.
	e = NewEngine()
	c := NewCond("never")
	err = e.RunRanks("stuck", 2, func(p *Process, rank int) error {
		c.Wait(p)
		return nil
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("RunRanks = %v, want ErrDeadlock", err)
	}
	for _, name := range []string{"stuck.rank0", "stuck.rank1"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("deadlock error %q does not name %s", err, name)
		}
	}
}

// TestCondWaiterReuseKeepsOrder: the waiter list is relinked by Signal,
// Broadcast and timeouts that leave from any position; after 1000 mixed
// rounds Signal must still wake in FIFO order and Waiters must be exact. The waiters keep a model of the queue
// themselves: a process appends itself before it waits and takes itself
// out when its wait times out.
func TestCondWaiterReuseKeepsOrder(t *testing.T) {
	e := NewEngine()
	c := NewCond("c")
	var model, signalled []int
	stop := false
	for i := 0; i < 6; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Process) {
			for !stop {
				model = append(model, i)
				if i%2 == 0 {
					c.Wait(p)
				} else if c.WaitTimeout(p, Duration(5+3*i)) {
					model = slices.Delete(model, slices.Index(model, i), slices.Index(model, i)+1)
					continue
				}
				signalled = append(signalled, i)
			}
		})
	}
	e.Spawn("controller", func(p *Process) {
		p.Sleep(1)
		for round := 0; round < 1000; round++ {
			var want []int
			switch round % 3 {
			case 0:
				want = []int{model[0]}
				model = model[1:]
				c.Signal(e)
			case 1:
				want, model = model, nil
				c.Broadcast(e)
			case 2:
				p.Sleep(Duration(3 + round%17)) // some timed waits expire, from any position
			}
			signalled = signalled[:0]
			p.Sleep(1)
			if !slices.Equal(signalled, want) {
				t.Fatalf("round %d: woke %v, want %v", round, signalled, want)
			}
			if c.Waiters() != len(model) {
				t.Fatalf("round %d: Waiters() = %d with %v waiting", round, c.Waiters(), model)
			}
		}
		stop = true
		c.Broadcast(e)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestCondIsTwoWords: a condition is embedded in every connector (two),
// fabric flow, SQ (two), kernel instance, rank context and launch's Future,
// so it holds the two ends of its waiter list and nothing else (48 bytes
// while it held a name and a waiter slice with an inline slot).
func TestCondIsTwoWords(t *testing.T) {
	if size, word := unsafe.Sizeof(Cond{}), unsafe.Sizeof(uintptr(0)); size != 2*word {
		t.Errorf("a Cond is %d bytes, want two words (%d)", size, 2*word)
	}
}

// TestSwitchAllocatesNothing measures, from inside a process body, the
// three switches everything else is built from. Each must cost zero
// allocations once warm: no message per yield, no map write per wait, no
// waiter storage outside the waiting processes.
func TestSwitchAllocatesNothing(t *testing.T) {
	measure := func(name string, spawn func(e *Engine, round func(func()))) {
		e := NewEngine()
		spawn(e, func(f func()) {
			for i := 0; i < 100; i++ {
				f() // grow the event queue to its peak
			}
			if n := testing.AllocsPerRun(2000, f); n != 0 {
				t.Errorf("%s: %v allocations per round, want 0", name, n)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	measure("32-process Sleep round-robin", func(e *Engine, round func(func())) {
		stop := false
		for i := 0; i < 31; i++ {
			e.Spawn("peer", func(p *Process) {
				for !stop {
					p.Sleep(1)
				}
			})
		}
		e.Spawn("probe", func(p *Process) {
			round(func() { p.Sleep(1) })
			stop = true
		})
	})
	measure("Wait/Signal ping-pong", func(e *Engine, round func(func())) {
		ping, pong := NewCond("ping"), NewCond("pong")
		stop := false
		e.Spawn("peer", func(p *Process) {
			for ping.Wait(p); !stop; ping.Wait(p) {
				pong.Signal(e)
			}
		})
		e.Spawn("probe", func(p *Process) {
			round(func() {
				ping.Signal(e)
				pong.Wait(p)
			})
			stop = true
			ping.Signal(e)
		})
	})
	measure("64-waiter Broadcast and re-Wait", func(e *Engine, round func(func())) {
		c := NewCond("gen")
		stop := false
		for i := 0; i < 64; i++ {
			e.Spawn("waiter", func(p *Process) {
				for !stop {
					c.Wait(p)
				}
			})
		}
		e.Spawn("probe", func(p *Process) {
			round(func() {
				c.Broadcast(e)
				p.Sleep(1)
			})
			stop = true
			c.Broadcast(e)
		})
	})
}

// TestNoGoroutineLeak: a process is a goroutine (a parked coroutine), so
// every Run must leave none behind once its processes finished, and a
// finished process's coroutine must serve the next spawn.
func TestNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		e := NewEngine()
		for j := 0; j < 10; j++ {
			e.Spawn("parent", func(p *Process) {
				p.Sleep(Duration(j))
				p.Spawn("child", func(c *Process) { c.Sleep(3) })
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after 100 finished engines, %d before", n, base)
	}

	e := NewEngine()
	peak := 0
	e.Spawn("parent", func(p *Process) {
		for i := 0; i < 10000; i++ {
			p.Spawn("short", func(c *Process) { c.Sleep(1) })
			p.Sleep(2)
			peak = max(peak, runtime.NumGoroutine())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if peak > base+2 {
		t.Fatalf("10000 one-at-a-time processes held %d goroutines over the baseline, want 2 (parent and one reused coroutine)", peak-base)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Run, %d before", n, base)
	}
}

// TestGoexitInProcessEndsRunCaller: runtime.Goexit in a process body
// (what t.Fatal there does) must unwind the goroutine that called Run,
// running its deferred calls, rather than leave it waiting for a
// coroutine that no longer exists.
func TestGoexitInProcessEndsRunCaller(t *testing.T) {
	unwound := make(chan struct{})
	go func() {
		defer close(unwound)
		e := NewEngine()
		e.Spawn("peer", func(p *Process) { p.Sleep(5) })
		e.Spawn("quitter", func(p *Process) {
			p.Sleep(1)
			runtime.Goexit()
		})
		err := e.Run()
		t.Errorf("Run returned %v after a process called runtime.Goexit", err)
	}()
	select {
	case <-unwound:
	case <-time.After(10 * time.Second):
		t.Fatal("Run's caller still blocked 10s after a process called runtime.Goexit")
	}
}

// TestPanicLeavesEngineConsistent: a panicking process ends Run with the
// documented text, its parked peers stay counted, and nothing leaks into
// a later engine.
func TestPanicLeavesEngineConsistent(t *testing.T) {
	e := NewEngine()
	never := NewCond("never")
	for i := 0; i < 3; i++ {
		e.Spawn("peer", func(p *Process) { never.Wait(p) })
	}
	e.Spawn("x", func(p *Process) {
		p.Sleep(1)
		panic("boom")
	})
	err := e.Run()
	if err == nil || err.Error() != `sim: process "x" panicked: boom` {
		t.Fatalf("Run = %v, want the panic of process x", err)
	}
	if got := e.LiveProcesses(); got != 3 {
		t.Fatalf("LiveProcesses = %d after the panic, want the 3 parked peers", got)
	}
	if got := e.BlockedProcesses(); len(got) != 3 {
		t.Fatalf("BlockedProcesses = %v, want the 3 parked peers", got)
	}

	e = NewEngine()
	ran := false
	e.Spawn("after", func(p *Process) {
		p.Sleep(1)
		ran = true
	})
	if err := e.Run(); err != nil || !ran {
		t.Fatalf("fresh engine after a panic elsewhere: Run = %v, ran = %v", err, ran)
	}
}

// TestRunSpawnRun: an engine can be run again. Run stopped its idle
// coroutines, so the second round starts new ones, and a process the
// first Run left blocked still resumes where it parked.
func TestRunSpawnRun(t *testing.T) {
	e := NewEngine()
	c := NewCond("c")
	var order []string
	e.Spawn("first", func(p *Process) {
		p.Sleep(1)
		order = append(order, "first")
	})
	e.Spawn("blocked", func(p *Process) {
		c.Wait(p)
		order = append(order, "blocked")
	})
	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("first Run = %v, want ErrDeadlock", err)
	}
	e.Spawn("second", func(p *Process) {
		p.Sleep(1)
		order = append(order, "second")
		c.Signal(e)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("second Run = %v", err)
	}
	if want := []string{"first", "second", "blocked"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if e.Now() != 2 || e.LiveProcesses() != 0 {
		t.Fatalf("ended at %v with %d live processes, want 2ns and 0", e.Now(), e.LiveProcesses())
	}
}

// checkQueue asserts what the event queue promises between any two
// dispatches. The heap is in (at, seq) order and holds at most one slot per
// live process, each slot's position recorded in its process, and so never
// more slots than live processes. The lane holds events at now in rising
// seq order from its head, and is reset once drained. An entry is live when
// its seq is its process's and stale when older: a kept slot, or a timer at
// now that a signal beat. Every live process has at most one live event, and
// all but the one executing, if any, have one or are blocked on a condition.
func checkQueue(t *testing.T, e *Engine) {
	t.Helper()
	q := e.queue
	if len(q) > e.live {
		t.Fatalf("queue holds %d slots for %d live processes", len(q), e.live)
	}
	events := make([]int, e.spawned) // live events per process, by spawn ordinal
	entry := func(where string, i int, ev event) {
		t.Helper()
		switch {
		case ev.p.done || ev.seq > ev.p.seq:
			t.Fatalf("%s[%d] = (%v, %d) belongs to %s, which is done or whose latest event is %d", where, i, ev.at, ev.seq, ev.p.name, ev.p.seq)
		case ev.seq == ev.p.seq:
			events[ev.p.ord]++
		}
	}
	for i, ev := range q {
		if ev.p.ev != i+1 {
			t.Fatalf("queue[%d] belongs to %s, which records position %d", i, ev.p.name, ev.p.ev-1)
		}
		if i > 0 && ev.before(q[(i-1)/2]) {
			t.Fatalf("queue[%d] = (%v, %d) is due before its parent (%v, %d)", i, ev.at, ev.seq, q[(i-1)/2].at, q[(i-1)/2].seq)
		}
		entry("queue", i, ev)
	}
	if len(e.lane) > 0 && e.next >= len(e.lane) || len(e.lane) == 0 && e.next != 0 {
		t.Fatalf("lane of %d events has its head at %d", len(e.lane), e.next)
	}
	for i := e.next; i < len(e.lane); i++ {
		ev := e.lane[i]
		if ev.at != e.now || i > e.next && ev.seq <= e.lane[i-1].seq {
			t.Fatalf("lane[%d] = (%v, %d) at %v after seq %d", i, ev.at, ev.seq, e.now, e.lane[max(i-1, 0)].seq)
		}
		entry("lane", i, ev)
	}
	queued, awake := 0, 0
	for p := e.head; p != nil; p = p.next {
		if events[p.ord] > 1 {
			t.Fatalf("%s has %d live events", p.name, events[p.ord])
		}
		if events[p.ord] == 0 && p.cond == nil {
			awake++
		}
		if p.ev == 0 {
			continue
		}
		queued++
		if p.ev > len(q) || q[p.ev-1].p != p {
			t.Fatalf("%s records position %d, which is not its slot", p.name, p.ev-1)
		}
	}
	if queued != len(q) {
		t.Fatalf("queue holds %d slots, live processes record %d", len(q), queued)
	}
	if awake > 1 {
		t.Fatalf("%d processes are neither queued nor blocked on a condition", awake)
	}
}

// tokenRing runs n processes passing a token round in a fresh engine. Each
// waits for it under a 20 ms budget that never runs out, the way every
// connector wait under a spin threshold does, calls got with the number
// of waits cancelled so far, and hands the token on, until that number
// reaches rounds.
func tokenRing(tb testing.TB, n, rounds int, got func(e *Engine, p *Process, cancelled int)) {
	e := NewEngine()
	conds := make([]Cond, n)
	cancelled := 0
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Process) {
			if i == 0 {
				p.Sleep(1) // let the others start waiting
				conds[1].Signal(e)
			}
			for cancelled < rounds {
				if conds[i].WaitTimeout(p, 20*Millisecond) {
					tb.Errorf("%s: timed out at %v", p.name, p.Now())
					return
				}
				cancelled++
				got(e, p, cancelled)
				conds[(i+1)%n].Signal(e)
			}
			for j := range conds {
				conds[j].Signal(e) // the token stops here: release the rest
			}
		})
	}
	if err := e.Run(); err != nil {
		tb.Fatalf("Run: %v", err)
	}
	if cancelled < rounds || e.Now() >= Time(20*Millisecond) {
		tb.Fatalf("%d waits cancelled by %v, want %d before any 20ms budget could run out", cancelled, e.Now(), rounds)
	}
}

// TestQueueHoldsOnlyLiveEvents: 10 000 cancelled timers into a token ring
// of 16 processes the queue must still hold one event per process at
// most, checked by every process each time it is dispatched.
func TestQueueHoldsOnlyLiveEvents(t *testing.T) {
	tokenRing(t, 16, 10000, func(e *Engine, p *Process, _ int) {
		checkQueue(t, e)
		p.Sleep(1)
		checkQueue(t, e)
	})
}

// TestTimerRekeyEdgeCases: waking a timed waiter queues (now, next seq) in
// the lane and leaves its timer's slot kept where it sits. Every case checks
// the queue after each wake and pins the dispatch order, which is FIFO by
// sequence number within an instant whatever position the kept slot holds.
func TestTimerRekeyEdgeCases(t *testing.T) {
	// run spawns the named bodies in order and returns the order in
	// which they logged.
	type proc struct {
		name string
		body func(p *Process, e *Engine, log func(string))
	}
	run := func(t *testing.T, procs ...proc) []string {
		t.Helper()
		e := NewEngine()
		var order []string
		for _, pr := range procs {
			e.Spawn(pr.name, func(p *Process) {
				pr.body(p, e, func(s string) {
					checkQueue(t, e)
					order = append(order, fmt.Sprintf("%s:%s@%d", pr.name, s, p.Now()))
				})
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if e.LiveProcesses() != 0 || len(e.queue) != 0 || len(e.lane) != 0 {
			t.Fatalf("%d live processes, %d slots and %d lane events after Run", e.LiveProcesses(), len(e.queue), len(e.lane))
		}
		return order
	}
	expect := func(t *testing.T, got []string, want ...string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("order = %v\n       want %v", got, want)
		}
	}
	timed := func(c *Cond, d Duration) func(*Process, *Engine, func(string)) {
		return func(p *Process, e *Engine, log func(string)) {
			if c.WaitTimeout(p, d) {
				log("timeout")
			} else {
				log("signal")
			}
		}
	}
	sleeper := func(d Duration) func(*Process, *Engine, func(string)) {
		return func(p *Process, e *Engine, log func(string)) {
			p.Sleep(d)
			log("woke")
		}
	}

	t.Run("deadline equals now", func(t *testing.T) {
		// At t=10 the queue holds, by seq: s, eight timers, eight
		// sleepers. s broadcasts: the wakes take later seqs, so every
		// sleeper runs before any waiter, and the timers, kept, never fire.
		var c Cond
		procs := []proc{{"s", func(p *Process, e *Engine, log func(string)) {
			p.Sleep(10)
			c.Broadcast(e)
			checkQueue(t, e)
			log("broadcast")
		}}}
		want := []string{"s:broadcast@10"}
		for i := 0; i < 8; i++ {
			procs = append(procs, proc{fmt.Sprintf("w%d", i), timed(&c, 10)})
		}
		for i := 0; i < 8; i++ {
			procs = append(procs, proc{fmt.Sprintf("x%d", i), sleeper(10)})
			want = append(want, fmt.Sprintf("x%d:woke@10", i))
		}
		for i := 0; i < 8; i++ {
			want = append(want, fmt.Sprintf("w%d:signal@10", i))
		}
		expect(t, run(t, procs...), want...)
	})

	t.Run("timeout zero", func(t *testing.T) {
		// A zero (or negative) budget still yields to what the instant
		// already holds, so b runs and signals a before a's timer fires.
		// That puts a behind n, whose own timer was queued after a's.
		var c, never Cond
		expect(t, run(t,
			proc{"a", timed(&c, 0)},
			proc{"n", timed(&never, -5)},
			proc{"b", func(p *Process, e *Engine, log func(string)) {
				c.Signal(e)
				log("signalled")
			}},
			proc{"x", sleeper(0)},
		), "b:signalled@0", "n:timeout@0", "a:signal@0", "x:woke@0")
	})

	t.Run("timer first at the same instant", func(t *testing.T) {
		// w's timer was queued before s's sleep, so at t=10 it fires
		// first; the signal that follows finds nobody and wakes nobody.
		var c Cond
		expect(t, run(t,
			proc{"w", func(p *Process, e *Engine, log func(string)) {
				timed(&c, 10)(p, e, log)
				p.Sleep(5)
				log("once")
			}},
			proc{"s", func(p *Process, e *Engine, log func(string)) {
				p.Sleep(10)
				c.Signal(e)
				log("signalled")
			}},
		), "w:timeout@10", "s:signalled@10", "w:once@15")
	})

	t.Run("broadcast over 64 timed waiters", func(t *testing.T) {
		var c Cond
		var procs []proc
		var want []string
		for i := 0; i < 64; i++ {
			// Deadlines fall as i grows, so waiter order is the
			// reverse of timer order.
			procs = append(procs, proc{fmt.Sprintf("w%d", i), timed(&c, Duration(1000-i))})
			want = append(want, fmt.Sprintf("w%d:signal@3", i))
		}
		procs = append(procs, proc{"s", func(p *Process, e *Engine, log func(string)) {
			p.Sleep(3)
			c.Broadcast(e)
			checkQueue(t, e)
			// Every timer's slot stays in the heap, kept; the wakes are
			// the lane, in waiter order.
			if len(e.queue) != 64 || len(e.lane)-e.next != 64 {
				t.Errorf("%d slots and %d lane events for 64 woken waiters", len(e.queue), len(e.lane)-e.next)
			}
			for i, ev := range e.queue {
				if ev.seq == ev.p.seq {
					t.Errorf("queue[%d]: %s's timer still holds its event", i, ev.p.name)
				}
			}
			for i, ev := range e.lane[e.next:] {
				if want := fmt.Sprintf("w%d", i); ev.p.name != want || ev.at != 3 {
					t.Errorf("lane[%d] = %s at %v, want %s at 3ns", i, ev.p.name, ev.at, want)
				}
			}
		}})
		expect(t, run(t, procs...), want...)
	})

	t.Run("wake then wait again", func(t *testing.T) {
		var c Cond
		signalled := 0
		got := run(t,
			proc{"w", func(p *Process, e *Engine, log func(string)) {
				for i := 0; i < 100; i++ {
					if c.WaitTimeout(p, 20*Millisecond) {
						t.Errorf("wait %d timed out at %v", i, p.Now())
					}
					if p.Now() != Time(i+1) {
						t.Errorf("wait %d returned at %v", i, p.Now())
					}
					signalled++
				}
				log("done")
			}},
			proc{"s", func(p *Process, e *Engine, log func(string)) {
				for i := 0; i < 100; i++ {
					p.Sleep(1)
					c.Signal(e)
					checkQueue(t, e)
				}
			}},
		)
		expect(t, got, "w:done@100")
		if signalled != 100 {
			t.Fatalf("%d wakes for 100 signals", signalled)
		}
	})

	t.Run("root and last leaf", func(t *testing.T) {
		// Ten timers with s running: signal whichever sits in the last
		// slot, then the root, then the rest. Each keeps its slot where
		// it is and joins the lane's tail; each body then ends and takes
		// its slot out, wherever the others' removals left it.
		conds := make([]Cond, 10)
		var waiters []*Process
		e := NewEngine()
		var order, want []string
		for i := range conds {
			waiters = append(waiters, e.Spawn(fmt.Sprintf("w%d", i), func(p *Process) {
				if conds[i].WaitTimeout(p, Duration(100*(i+1))) {
					t.Errorf("%s timed out", p.name)
				}
				order = append(order, p.name)
			}))
		}
		e.Spawn("s", func(p *Process) {
			p.Sleep(1)
			at := func(pos int) int {
				return slices.IndexFunc(waiters, func(w *Process) bool { return w.ev == pos+1 })
			}
			root, leaf := at(0), at(len(e.queue)-1)
			if len(e.queue) != 10 || root != 0 || leaf <= 0 {
				t.Fatalf("%d timers queued with w%d first and w%d last, want 10 with w0 first", len(e.queue), root, leaf)
			}
			signal := func(i int) {
				want = append(want, waiters[i].name)
				slot := waiters[i].ev
				conds[i].Signal(e)
				checkQueue(t, e)
				if tail := e.lane[len(e.lane)-1]; waiters[i].ev != slot || tail.p != waiters[i] {
					t.Errorf("woken %s sits at %d with %s last in the lane, want its slot kept at %d and its wake last", waiters[i].name, waiters[i].ev-1, tail.p.name, slot-1)
				}
			}
			signal(leaf)
			signal(root)
			for i := 1; i < len(waiters); i++ {
				if i != leaf {
					signal(i)
				}
			}
			if len(e.queue) != 10 || len(e.lane)-e.next != 10 {
				t.Errorf("%d slots and %d lane events after ten wakes, want 10 kept and 10 queued", len(e.queue), len(e.lane)-e.next)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		expect(t, order, want...)
		if len(e.queue) != 0 {
			t.Fatalf("%d slots left after every body ended", len(e.queue))
		}
	})
}

// TestEndWithQueuedEventPanics: nothing in the API lets a body return with
// its own wakeup still queued; if engine code ever does, step must say so
// rather than dispatch a finished process later.
func TestEndWithQueuedEventPanics(t *testing.T) {
	e := NewEngine()
	var w *worker
	e.Spawn("leaver", func(p *Process) {
		w = p.w
		e.schedule(p, e.now.Add(5))
	})
	defer func() {
		w.stop() // step gave up before it recycled the coroutine
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"leaver" ended with an event still queued`) {
			t.Fatalf("recovered %v, want the panic naming the process", r)
		}
	}()
	err := e.Run()
	t.Fatalf("Run returned %v", err)
}

// cancelledTimersTimeline runs a seeded random program of 64 processes
// (and the children they spawn) over eight conditions and returns its
// timeline fingerprint. Times are a few nanoseconds, so signals, timers
// and sleeps keep falling on the same instant; the 20 ms waits are always
// cancelled, by a peer or by the ticker that also keeps plain waits from
// deadlocking.
func cancelledTimersTimeline(t *testing.T) uint64 {
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	conds := make([]Cond, 8)
	left := 0
	var body func(steps int, parent bool) func(*Process)
	body = func(steps int, parent bool) func(*Process) {
		left++
		return func(p *Process) {
			for i := 0; i < steps; i++ {
				c := &conds[rng.Intn(len(conds))]
				timedOut := false
				switch rng.Intn(8) {
				case 0:
					p.Sleep(Duration(rng.Intn(4)))
				case 1:
					c.Wait(p)
				case 2:
					timedOut = c.WaitTimeout(p, Duration(rng.Intn(4)))
				case 3, 4:
					timedOut = c.WaitTimeout(p, 20*Millisecond)
				case 5:
					c.Signal(e)
				case 6:
					c.Broadcast(e)
				case 7:
					if parent {
						p.Spawn("child", body(8, false))
					}
				}
				if timedOut {
					p.Sleep(1) // what a wait reports shapes the timeline too
				}
			}
			left--
		}
	}
	for i := 0; i < 64; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), body(200, true))
	}
	e.Spawn("ticker", func(p *Process) {
		for left > 0 {
			p.Sleep(7)
			for i := range conds {
				conds[i].Broadcast(e)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Now() >= Time(20*Millisecond) {
		t.Fatalf("ended at %v: a 20ms budget ran out", e.Now())
	}
	return e.Fingerprint()
}

// TestCancelledTimersKeepTimeline pins the fingerprint of that program to
// the value recorded on the engine that left cancelled timers queued
// until their deadline (the parent of the live-only queue): how the queue
// forgets a timer must not change which event is dispatched when.
func TestCancelledTimersKeepTimeline(t *testing.T) {
	const golden uint64 = 0xd23676c74428cdbd
	for run := 0; run < 2; run++ {
		if got := cancelledTimersTimeline(t); got != golden {
			t.Fatalf("run %d: fingerprint %#x, want %#x", run, got, golden)
		}
	}
}

// BenchmarkCancelledTimers is the cost of one signalled WaitTimeout under
// a 20 ms budget, in a token ring of 16 processes that takes no virtual
// time, so no budget ever runs out. Timing starts once the given number
// of timers has been cancelled; the cost must not depend on it.
func BenchmarkCancelledTimers(b *testing.B) {
	for _, after := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("after=%d", after), func(b *testing.B) {
			tokenRing(b, 16, after+b.N, func(_ *Engine, _ *Process, cancelled int) {
				if cancelled == after {
					b.ResetTimer()
				}
			})
		})
	}
}
