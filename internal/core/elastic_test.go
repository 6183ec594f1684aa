package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// TestKillRankAbortsInFlightAndReforms is the elastic-membership
// acceptance path at the core layer: four ranks launch a data-carrying
// all-reduce, one rank is killed mid-flight, every member's future
// resolves with the typed ErrRankLost (no hang), the survivors Reform
// onto the three-rank group, relaunch, and verify the survivor sum
// bit-exactly.
func TestKillRankAbortsInFlightAndReforms(t *testing.T) {
	const n, count, victim = 4, 1 << 16, 2
	e := sim.NewEngine()
	e.MaxTime = sim.Time(300 * sim.Second)
	sys := NewSystem(e, topo.Server3090(n), DefaultConfig())
	ranks := []int{0, 1, 2, 3}

	killedErrs := make([]error, n)
	reformedSums := make([]float64, n)
	for i := range reformedSums {
		reformedSums[i] = -1
	}

	for rank := 0; rank < n; rank++ {
		rank := rank
		e.Spawn("elastic", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			coll, err := rc.Open(lifecycleSpec(count, ranks), WithCollID(7))
			if err != nil {
				t.Errorf("rank %d open: %v", rank, err)
				return
			}
			s := mem.NewBuffer(mem.Float64, count)
			d := mem.NewBuffer(mem.Float64, count)
			s.Fill(float64(rank + 1))
			fut, err := coll.Launch(p, s, d)
			if err != nil {
				t.Errorf("rank %d launch: %v", rank, err)
				return
			}
			killedErrs[rank] = fut.Wait(p)
			if rank == victim {
				return // dead rank: nothing more to do
			}
			if got := coll.LostRanks(); len(got) != 1 || got[0] != victim {
				t.Errorf("rank %d LostRanks = %v, want [%d]", rank, got, victim)
			}
			// Relaunching on the dead group fails synchronously, typed.
			if _, err := coll.Launch(p, s, d); !errors.Is(err, ErrRankLost) {
				t.Errorf("rank %d relaunch on dead group: err = %v, want ErrRankLost", rank, err)
			}
			re, err := coll.Reform(p)
			if err != nil {
				t.Errorf("rank %d reform: %v", rank, err)
				return
			}
			s.Fill(float64(rank + 1))
			fut2, err := re.Launch(p, s, d)
			if err != nil {
				t.Errorf("rank %d relaunch: %v", rank, err)
				return
			}
			if err := fut2.Wait(p); err != nil {
				t.Errorf("rank %d reformed wait: %v", rank, err)
				return
			}
			reformedSums[rank] = d.Float64At(0)
			if err := re.Close(p); err != nil {
				t.Errorf("rank %d close: %v", rank, err)
			}
			rc.Destroy(p)
		})
	}
	e.Spawn("chaos", func(p *sim.Process) {
		p.Sleep(30 * sim.Microsecond)
		sys.KillRank(victim)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v (blocked: %v)", err, e.BlockedProcesses())
	}
	// 1+2+4 (ranks 0,1,3 contribute rank+1): the survivor sum.
	const wantSum = 1 + 2 + 4
	for rank := 0; rank < n; rank++ {
		if !errors.Is(killedErrs[rank], ErrRankLost) {
			t.Errorf("rank %d aborted future err = %v, want ErrRankLost", rank, killedErrs[rank])
		}
		var rle *RankLostError
		if errors.As(killedErrs[rank], &rle) {
			if rle.CollID != 7 || len(rle.Lost) != 1 || rle.Lost[0] != victim {
				t.Errorf("rank %d RankLostError = %+v, want coll 7 lost [%d]", rank, rle, victim)
			}
		}
		if rank == victim {
			continue
		}
		if reformedSums[rank] != wantSum {
			t.Errorf("rank %d reformed sum = %v, want %v", rank, reformedSums[rank], wantSum)
		}
	}
	if got := sys.NumRegistered(); got != 0 {
		t.Fatalf("NumRegistered = %d after full teardown, want 0", got)
	}
	if !sys.RankLost(victim) {
		t.Fatalf("RankLost(%d) = false after kill", victim)
	}
}

// TestKillWithLentChunksUnread kills a rank while chunks it lent are
// still unread in its send connector and at once overwrites both of the
// dead rank's buffers, as a process that died and whose memory was
// reused would. No survivor reads those chunks: the kill aborts the group
// before any of them reads again. The survivors Reform, rerun the
// all-reduce over the same buffers, and hold the three-rank sum bit for
// bit; lentcheck builds also see every chunk read intact.
func TestKillWithLentChunksUnread(t *testing.T) {
	const n, count, victim = 4, 1 << 12, 1
	e := sim.NewEngine()
	e.MaxTime = sim.Time(60 * sim.Second)
	sys := NewSystem(e, topo.Server3090(n), DefaultConfig())
	spec := lifecycleSpec(count, []int{0, 1, 2, 3})
	spec.ChunkElems = 64
	value := func(rank, i int) float64 { return float64((rank+1)*(i%97) - 40) }
	sends, recvs := make([]*mem.Buffer, n), make([]*mem.Buffer, n)
	reformed := make([]bool, n)
	for rank := 0; rank < n; rank++ {
		sends[rank], recvs[rank] = mem.NewBuffer(mem.Float64, count), mem.NewBuffer(mem.Float64, count)
		for i := 0; i < count; i++ {
			sends[rank].SetFloat64(i, value(rank, i))
		}
		e.Spawn("rank", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			coll, err := rc.Open(spec, WithCollID(7))
			if err != nil {
				t.Errorf("rank %d open: %v", rank, err)
				return
			}
			fut, err := coll.Launch(p, sends[rank], recvs[rank])
			if err != nil {
				t.Errorf("rank %d launch: %v", rank, err)
				return
			}
			if err := fut.Wait(p); !errors.Is(err, ErrRankLost) {
				t.Errorf("rank %d wait: err = %v, want ErrRankLost", rank, err)
			}
			if rank == victim {
				return
			}
			re, err := coll.Reform(p)
			if err != nil {
				t.Errorf("rank %d reform: %v", rank, err)
				return
			}
			if fut, err = re.Launch(p, sends[rank], recvs[rank]); err == nil {
				err = fut.Wait(p)
			}
			if err != nil {
				t.Errorf("rank %d reformed run: %v", rank, err)
				return
			}
			reformed[rank] = true
			if err := re.Close(p); err != nil {
				t.Errorf("rank %d close: %v", rank, err)
			}
			rc.Destroy(p)
		})
	}
	e.Spawn("chaos", func(p *sim.Process) {
		for {
			if rc := sys.rankAt(victim); rc != nil {
				if task := rc.task(7); task != nil && task.exec.Outs[0].Lent() > 0 {
					break
				}
			}
			p.Sleep(100 * sim.Nanosecond)
		}
		sys.KillRank(victim)
		sends[victim].Fill(math.NaN())
		recvs[victim].Fill(math.Inf(-1))
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v (blocked: %v)", err, e.BlockedProcesses())
	}
	for rank := 0; rank < n; rank++ {
		if rank == victim {
			continue
		}
		if !reformed[rank] {
			t.Fatalf("rank %d did not finish its reformed run", rank)
		}
		for i := 0; i < count; i++ {
			want := 0.0
			for _, r := range []int{0, 2, 3} {
				want += value(r, i)
			}
			if got := recvs[rank].Float64At(i); got != want {
				t.Fatalf("rank %d element %d = %v after the reform, want %v", rank, i, got, want)
			}
		}
	}
}

// TestAllToAllKillMidRun kills a rank halfway through a real-data flat
// all-to-all, whose executors send own blocks straight from the send
// buffer, forward blocks through scratch transit slots and land final
// blocks in the recv buffer, once the victim has chunks lent and unread;
// the dead rank's buffers are overwritten at once. Every survivor's run
// resolves with the group's RankLostError; the survivors Reform, launch
// over new buffers sized for the smaller group and hold the closed form
// bit for bit. lentcheck builds also see every chunk read intact.
func TestAllToAllKillMidRun(t *testing.T) {
	const n, count, victim = 5, 512, 2
	e := sim.NewEngine()
	e.MaxTime = sim.Time(60 * sim.Second)
	sys := NewSystem(e, topo.Server3090(n), DefaultConfig())
	spec := prim.Spec{Kind: prim.AllToAll, Count: count, Type: mem.Float64, Ranks: []int{0, 1, 2, 3, 4}, ChunkElems: 64}
	survivors := []int{0, 1, 3, 4}
	value := func(src, dst, i int) float64 { return float64(10000*src + 100*dst + i%97) }
	fill := func(rank int, peers []int) *mem.Buffer {
		b := mem.NewBuffer(mem.Float64, count*len(peers))
		for j, dst := range peers {
			for i := 0; i < count; i++ {
				b.SetFloat64(j*count+i, value(rank, dst, i))
			}
		}
		return b
	}
	sends, recvs := make([]*mem.Buffer, n), make([]*mem.Buffer, n)
	reformed := make([]*mem.Buffer, n)
	for rank := 0; rank < n; rank++ {
		sends[rank], recvs[rank] = fill(rank, spec.Ranks), mem.NewBuffer(mem.Float64, count*n)
		e.Spawn("rank", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			coll, err := rc.Open(spec, WithCollID(7))
			if err != nil {
				t.Errorf("rank %d open: %v", rank, err)
				return
			}
			fut, err := coll.Launch(p, sends[rank], recvs[rank])
			if err != nil {
				t.Errorf("rank %d launch: %v", rank, err)
				return
			}
			err = fut.Wait(p)
			if rank == victim {
				return
			}
			var rle *RankLostError
			if !errors.As(err, &rle) || rle.CollID != 7 || len(rle.Lost) != 1 || rle.Lost[0] != victim {
				t.Errorf("rank %d wait: err = %v, want the RankLostError of collective 7 losing rank %d", rank, err, victim)
				return
			}
			re, err := coll.Reform(p)
			if err != nil {
				t.Errorf("rank %d reform: %v", rank, err)
				return
			}
			send, recv := fill(rank, survivors), mem.NewBuffer(mem.Float64, count*len(survivors))
			if fut, err = re.Launch(p, send, recv); err == nil {
				err = fut.Wait(p)
			}
			if err != nil {
				t.Errorf("rank %d reformed run: %v", rank, err)
				return
			}
			reformed[rank] = recv
			if err := re.Close(p); err != nil {
				t.Errorf("rank %d close: %v", rank, err)
			}
			rc.Destroy(p)
		})
	}
	e.Spawn("chaos", func(p *sim.Process) {
		for {
			if rc := sys.rankAt(victim); rc != nil {
				x := rc.task(7).exec
				if 2*x.PrimsExecuted >= x.NumPrimitives() && x.Outs[0].Lent() > 0 {
					break
				}
				if x.PrimsExecuted == x.NumPrimitives() {
					t.Error("the victim finished without a chunk lent past halfway")
					return
				}
			}
			p.Sleep(10 * sim.Nanosecond) // a chunk stays lent for well under 100 ns
		}
		sys.KillRank(victim)
		sends[victim].Fill(math.NaN())
		recvs[victim].Fill(math.Inf(-1))
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v (blocked: %v)", err, e.BlockedProcesses())
	}
	for _, rank := range survivors {
		if reformed[rank] == nil {
			t.Fatalf("rank %d did not finish its reformed run", rank)
		}
		for o, src := range survivors {
			for i := 0; i < count; i++ {
				if got, want := reformed[rank].Float64At(o*count+i), value(src, rank, i); got != want {
					t.Fatalf("rank %d element %d of the block from rank %d = %v after the reform, want %v", rank, i, src, got, want)
				}
			}
		}
	}
}

// TestOpenOverLostRankRefused pins the registration fast-path: a new
// open whose rank set contains a killed rank fails with the typed
// error, and succeeds again after ReviveRank + Init.
func TestOpenOverLostRankRefused(t *testing.T) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(60 * sim.Second)
	sys := NewSystem(e, topo.Server3090(2), DefaultConfig())
	e.Spawn("driver", func(p *sim.Process) {
		r0 := sys.Init(p, 0)
		sys.Init(p, 1)
		sys.KillRank(1)
		if _, err := r0.Open(lifecycleSpec(16, []int{0, 1}), WithCollID(5)); !errors.Is(err, ErrRankLost) {
			t.Errorf("open over lost rank: err = %v, want ErrRankLost", err)
		}
		if err := sys.ReviveRank(1); err != nil {
			t.Errorf("revive: %v", err)
		}
		if sys.RankLost(1) {
			t.Error("RankLost(1) still true after revive")
		}
		r1 := sys.Init(p, 1)
		c0, err := r0.Open(lifecycleSpec(16, []int{0, 1}), WithCollID(5))
		if err != nil {
			t.Errorf("open after revive: %v", err)
			return
		}
		if err := c0.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		r0.Destroy(p)
		r1.Destroy(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestNoGoroutineLeakOnMidFlightAbort pins satellite 4: every sim
// process is a real goroutine parked on a resume channel, so a future
// that never completes after an abort — or a poller that never observes
// its destroyed flag — is a measurable goroutine leak. After a
// kill-mid-flight run drains cleanly the engine must report zero live
// processes and the runtime goroutine count must return to baseline.
func TestNoGoroutineLeakOnMidFlightAbort(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	const n, count, victim = 3, 1 << 14, 1
	e := sim.NewEngine()
	e.MaxTime = sim.Time(120 * sim.Second)
	sys := NewSystem(e, topo.Server3090(n), DefaultConfig())
	ranks := []int{0, 1, 2}
	for rank := 0; rank < n; rank++ {
		rank := rank
		e.Spawn("leak", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			coll, err := rc.Open(lifecycleSpec(count, ranks), WithCollID(3))
			if err != nil {
				t.Errorf("rank %d open: %v", rank, err)
				return
			}
			s := mem.NewBuffer(mem.Float64, count)
			d := mem.NewBuffer(mem.Float64, count)
			s.Fill(1)
			fut, err := coll.Launch(p, s, d)
			if err != nil {
				t.Errorf("rank %d launch: %v", rank, err)
				return
			}
			if err := fut.Wait(p); !errors.Is(err, ErrRankLost) {
				t.Errorf("rank %d wait err = %v, want ErrRankLost", rank, err)
			}
			if rank == victim {
				return
			}
			if err := coll.Close(p); err != nil {
				t.Errorf("rank %d close: %v", rank, err)
			}
			rc.Destroy(p)
		})
	}
	e.Spawn("chaos", func(p *sim.Process) {
		p.Sleep(10 * sim.Microsecond)
		sys.KillRank(victim)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v (blocked: %v)", err, e.BlockedProcesses())
	}
	if got := e.LiveProcesses(); got != 0 {
		t.Fatalf("LiveProcesses = %d after clean run, want 0 (blocked: %v)", got, e.BlockedProcesses())
	}
	// Finished process goroutines exit asynchronously after their final
	// yield is consumed; give the scheduler a few GC'd beats.
	for i := 0; i < 50; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestReopenIDWhileLostRankDrains is the requeue regression at the core
// layer: rank 1 dies while it runs collective 7 with rank 0 and a
// co-tenant collective 8 with rank 2. As soon as both survivors have
// closed their aborted handles — while the dead rank still holds its
// registrations — they reopen ID 7 over {0, 2}. The open must succeed on
// a communicator of its own, not return the old abort, and the
// survivors' sum must be exact.
func TestReopenIDWhileLostRankDrains(t *testing.T) {
	const count, victim = 1 << 14, 1
	e := sim.NewEngine()
	e.MaxTime = sim.Time(60 * sim.Second)
	sys := NewSystem(e, topo.Server3090(3), DefaultConfig())
	var dead *Group // the aborted incarnation of collective 7
	closed := newTestBarrier(2)
	launch := func(p *sim.Process, coll *Collective, v float64) (*mem.Buffer, error) {
		s := mem.NewBuffer(mem.Float64, count)
		d := mem.NewBuffer(mem.Float64, count)
		s.Fill(v)
		fut, err := coll.Launch(p, s, d)
		if err != nil {
			return nil, err
		}
		return d, fut.Wait(p)
	}
	e.Spawn("victim", func(p *sim.Process) {
		rc := sys.Init(p, victim)
		for _, o := range []struct {
			id    int
			ranks []int
		}{{8, []int{1, 2}}, {7, []int{0, 1}}} {
			coll, err := rc.Open(lifecycleSpec(count, o.ranks), WithCollID(o.id))
			if err != nil {
				t.Errorf("victim open %d: %v", o.id, err)
				return
			}
			s := mem.NewBuffer(mem.Float64, count)
			if err := coll.LaunchCB(p, s, mem.NewBuffer(mem.Float64, count), nil); err != nil {
				t.Errorf("victim launch %d: %v", o.id, err)
			}
		}
	})
	for _, rank := range []int{0, 2} {
		e.Spawn("survivor", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			first := []int{0, 1}
			id := 7
			if rank == 2 {
				first, id = []int{1, 2}, 8
			}
			coll, err := rc.Open(lifecycleSpec(count, first), WithCollID(id))
			if err != nil {
				t.Errorf("rank %d open %d: %v", rank, id, err)
				return
			}
			if rank == 0 {
				dead = sys.group(7)
			}
			if _, err := launch(p, coll, 1); !errors.Is(err, ErrRankLost) {
				t.Errorf("rank %d first run: err = %v, want ErrRankLost", rank, err)
			}
			if err := coll.Close(p); err != nil {
				t.Errorf("rank %d close: %v", rank, err)
			}
			closed.Wait(p)
			if sys.rankAt(victim).task(7) == nil {
				t.Error("the dead rank released collective 7 before the reopen; the test no longer covers the drain")
			}
			re, err := rc.Open(lifecycleSpec(count, []int{0, 2}), WithCollID(7))
			if err != nil {
				t.Errorf("rank %d reopen 7 over the survivors: %v", rank, err)
				return
			}
			if g := sys.group(7); g == dead || g.comm == dead.comm {
				t.Errorf("rank %d: reopened collective 7 shares the dead group's wiring", rank)
			}
			d, err := launch(p, re, float64(rank+1))
			if err != nil {
				t.Errorf("rank %d reopened run: %v", rank, err)
			} else if got := d.Float64At(count - 1); got != 1+3 {
				t.Errorf("rank %d reopened sum = %v, want 4", rank, got)
			}
			if err := re.Close(p); err != nil {
				t.Errorf("rank %d close reopened: %v", rank, err)
			}
			rc.Destroy(p)
		})
	}
	e.Spawn("chaos", func(p *sim.Process) {
		p.Sleep(20 * sim.Microsecond)
		sys.KillRank(victim)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v (blocked: %v)", err, e.BlockedProcesses())
	}
	if got := sys.NumRegistered(); got != 0 {
		t.Errorf("NumRegistered = %d after teardown, want 0", got)
	}
	if got := sys.CommsPooled(); got != int(sys.CommsCreated()) {
		t.Errorf("%d of %d communicators pooled after teardown", got, sys.CommsCreated())
	}
}

// TestLaunchFIFOResolvesInOrderUnderKill: each survivor queues five
// launches of one four-rank handle — Launch, LaunchCB, a two-run Batch of
// the same handle, LaunchCB, Launch — that cannot finish while rank 3
// has launched nothing, so all six records sit in the task's launch FIFO
// when rank 3 is killed. Every future and callback must resolve exactly
// once, in launch order, with the typed *RankLostError; Close must then
// succeed, and once rank 3 is revived a re-Open of the same rank set must
// reuse the communicator and sum exactly.
func TestLaunchFIFOResolvesInOrderUnderKill(t *testing.T) {
	const n, count, victim, id = 4, 1 << 10, 3, 1
	e := sim.NewEngine()
	e.MaxTime = sim.Time(60 * sim.Second)
	sys := NewSystem(e, topo.Server3090(n), DefaultConfig())
	ranks := allRanks(n)
	closed, reopen := newTestBarrier(n), newTestBarrier(n)
	var comm *communicator // collective 1's before the kill
	// lost checks that err is the kill's typed error.
	lost := func(rank int, what string, err error) {
		var rle *RankLostError
		if !errors.As(err, &rle) || rle.CollID != id || len(rle.Lost) != 1 || rle.Lost[0] != victim {
			t.Errorf("rank %d %s: err = %v, want *RankLostError for coll %d lost [%d]", rank, what, err, id, victim)
		}
	}
	// run launches coll once with real data and checks the sum.
	run := func(p *sim.Process, coll *Collective, rank int) {
		s := mem.NewBuffer(mem.Float64, count)
		d := mem.NewBuffer(mem.Float64, count)
		s.Fill(float64(rank + 1))
		fut, err := coll.Launch(p, s, d)
		if err == nil {
			err = fut.Wait(p)
		}
		if err != nil {
			t.Errorf("rank %d reopened run: %v", rank, err)
		} else if got := d.Float64At(count - 1); got != 1+2+3+4 {
			t.Errorf("rank %d reopened sum = %v, want 10", rank, got)
		}
		if err := coll.Close(p); err != nil {
			t.Errorf("rank %d close reopened: %v", rank, err)
		}
	}
	for rank := 0; rank < victim; rank++ {
		e.Spawn("survivor", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			coll, err := rc.Open(lifecycleSpec(count, ranks), WithCollID(id))
			if err != nil {
				t.Errorf("rank %d open: %v", rank, err)
				return
			}
			comm = sys.group(id).comm
			buf := func() *mem.Buffer { return mem.NewBuffer(mem.Float64, count) }
			var futs [3]*Future // Launch, Batch, Launch
			var calls [2]int    // the two LaunchCBs' callbacks
			// callback is the i-th LaunchCB's: by then exactly the first i+1
			// futures, and the i callbacks before it, have resolved.
			callback := func(i int) Callback {
				return func(err error) {
					calls[i]++
					lost(rank, fmt.Sprintf("callback %d", i), err)
					for j, f := range futs {
						if f.Done() != (j <= i) {
							t.Errorf("rank %d: callback %d ran with future %d Done = %v", rank, i, j, f.Done())
						}
					}
					if i > 0 && calls[i-1] != 1 {
						t.Errorf("rank %d: callback %d ran before callback %d", rank, i, i-1)
					}
				}
			}
			if futs[0], err = coll.Launch(p, buf(), buf()); err == nil {
				err = coll.LaunchCB(p, buf(), buf(), callback(0))
			}
			if err == nil {
				futs[1], err = Batch(p, BatchItem{coll, buf(), buf()}, BatchItem{coll, buf(), buf()})
			}
			if err == nil {
				err = coll.LaunchCB(p, buf(), buf(), callback(1))
			}
			if err == nil {
				futs[2], err = coll.Launch(p, buf(), buf())
			}
			if err != nil {
				t.Errorf("rank %d launch: %v", rank, err)
				return
			}
			for i, f := range futs {
				lost(rank, fmt.Sprintf("future %d", i), f.Wait(p))
			}
			rc.WaitAll(p)
			for i, f := range futs {
				if f.pending != 0 {
					t.Errorf("rank %d: future %d resolved %d times for %d runs", rank, i, f.total-f.pending, f.total)
				}
			}
			if calls != [2]int{1, 1} {
				t.Errorf("rank %d: callbacks ran %v times, want once each", rank, calls)
			}
			if err := coll.Close(p); err != nil {
				t.Errorf("rank %d close after the kill: %v", rank, err)
			}
			closed.Wait(p)
			reopen.Wait(p)
			re, err := rc.Open(lifecycleSpec(count, ranks), WithCollID(id))
			if err != nil {
				t.Errorf("rank %d reopen: %v", rank, err)
				return
			}
			run(p, re, rank)
			rc.Destroy(p)
		})
	}
	e.Spawn("victim", func(p *sim.Process) {
		if _, err := sys.Init(p, victim).Open(lifecycleSpec(count, ranks), WithCollID(id)); err != nil {
			t.Errorf("victim open: %v", err)
		}
	})
	e.Spawn("chaos", func(p *sim.Process) {
		p.Sleep(100 * sim.Microsecond)
		for rank := 0; rank < victim; rank++ {
			if tk := sys.ranks[rank].task(id); len(tk.runs) != 6 || tk.cur != 0 {
				t.Errorf("rank %d: %d launches queued, %d done at the kill; want 6 and 0", rank, len(tk.runs), tk.cur)
			}
		}
		sys.KillRank(victim)
		closed.Wait(p)
		if err := sys.ReviveRank(victim); err != nil {
			t.Errorf("revive: %v", err)
		}
		created, reused := sys.CommsCreated(), sys.CommsReused()
		rc := sys.Init(p, victim)
		re, err := rc.Open(lifecycleSpec(count, ranks), WithCollID(id))
		if err != nil {
			t.Errorf("victim reopen: %v", err)
			return
		}
		if sys.group(id).comm != comm || sys.CommsCreated() != created || sys.CommsReused() != reused+1 {
			t.Errorf("reopen built a communicator (created %d → %d, reused %d → %d)", created, sys.CommsCreated(), reused, sys.CommsReused())
		}
		reopen.Wait(p)
		run(p, re, victim)
		rc.Destroy(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v (blocked: %v)", err, e.BlockedProcesses())
	}
	if got := e.LiveProcesses(); got != 0 {
		t.Errorf("LiveProcesses = %d after teardown, want 0", got)
	}
}

// hierA2ASpec builds a hierarchical all-to-all spec over ranks.
func hierA2ASpec(count int, ranks []int) prim.Spec {
	return prim.Spec{Kind: prim.AllToAll, Count: count, Type: mem.Float64, Ranks: ranks, Algo: prim.AlgoHierarchical}
}

// runHierOnce opens the hierarchical all-to-all over ranks on a fresh
// launch cycle, waits, and returns each member's per-transport byte
// split (indexed by position). collID < 0 selects auto IDs.
func runHierOnce(t *testing.T, sys *System, ranks []int, count int, tag string) []prim.TransportBytes {
	t.Helper()
	e := sys.Engine
	splits := make([]prim.TransportBytes, len(ranks))
	bar := newTestBarrier(len(ranks))
	for pos, rank := range ranks {
		pos, rank := pos, rank
		e.Spawn(tag, func(p *sim.Process) {
			rc := sys.Init(p, rank)
			coll, err := rc.Open(hierA2ASpec(count, ranks))
			if err != nil {
				t.Errorf("%s rank %d open: %v", tag, rank, err)
				return
			}
			s := mem.NewBuffer(mem.Float64, count*len(ranks))
			d := mem.NewBuffer(mem.Float64, count*len(ranks))
			for i := 0; i < s.Len(); i++ {
				s.SetFloat64(i, float64(rank*1000+i))
			}
			fut, err := coll.Launch(p, s, d)
			if err != nil {
				t.Errorf("%s rank %d launch: %v", tag, rank, err)
				return
			}
			if err := fut.Wait(p); err != nil {
				t.Errorf("%s rank %d wait: %v", tag, rank, err)
				return
			}
			splits[pos] = coll.Stats().BytesSentBy
			bar.Wait(p)
			if err := coll.Close(p); err != nil {
				t.Errorf("%s rank %d close: %v", tag, rank, err)
			}
			rc.Destroy(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("%s Run: %v (blocked: %v)", tag, err, e.BlockedProcesses())
	}
	return splits
}

// TestPoolReformationRegression cycles kill → reform → revive and pins
// two invariants: Created() communicator count stays bounded (the pool
// recycles both the full-set and the survivor-set shapes), and the
// HierFabric rebuilt for the re-formed group produces exactly the
// per-transport byte split of a fresh system opening the survivor
// group directly — extending the PR 4 permutation regression to
// elastic membership.
func TestPoolReformationRegression(t *testing.T) {
	const count, cycles, victim = 64, 5, 9
	cluster := topo.MultiNode3090(2)
	full := []int{0, 1, 8, 9}
	survivors := []int{0, 1, 8}

	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	sys := NewSystem(e, cluster, DefaultConfig())

	// All kill/revive cycles run inside one engine run: each rank is a
	// long-lived process looping over cycles, and a coordinator revives
	// the victim between cycles. Two barriers per cycle (5 parties: the
	// 4 rank processes + the coordinator) fence the revive.
	endWork := newTestBarrier(len(full) + 1)
	revived := newTestBarrier(len(full) + 1)
	reformedSplits := make([]prim.TransportBytes, len(survivors))
	for _, rank := range full {
		rank := rank
		e.Spawn("cycle", func(p *sim.Process) {
			for cy := 0; cy < cycles; cy++ {
				rc := sys.Init(p, rank) // victim: fresh context post-revive
				coll, err := rc.Open(hierA2ASpec(count, full))
				if err != nil {
					t.Errorf("cycle %d rank %d open: %v", cy, rank, err)
					return
				}
				s := mem.NewBuffer(mem.Float64, count*len(full))
				d := mem.NewBuffer(mem.Float64, count*len(full))
				s.Fill(float64(rank))
				fut, err := coll.Launch(p, s, d)
				if err != nil {
					t.Errorf("cycle %d rank %d launch: %v", cy, rank, err)
					return
				}
				if rank == victim {
					// The victim kills itself mid-flight, drains its
					// aborted future, and keeps pacing the barriers.
					p.Sleep(10 * sim.Microsecond)
					sys.KillRank(victim)
					fut.Wait(p)
					endWork.Wait(p)
					revived.Wait(p)
					continue
				}
				fut.Wait(p) // resolves (success or typed abort)
				for coll.LostRanks() == nil {
					// Completed before the kill landed: wait for it so
					// Reform has something to re-form from.
					p.Sleep(5 * sim.Microsecond)
				}
				re, err := coll.Reform(p)
				if err != nil {
					t.Errorf("cycle %d rank %d reform: %v", cy, rank, err)
					return
				}
				s2 := mem.NewBuffer(mem.Float64, count*len(survivors))
				d2 := mem.NewBuffer(mem.Float64, count*len(survivors))
				s2.Fill(float64(rank))
				fut2, err := re.Launch(p, s2, d2)
				if err != nil {
					t.Errorf("cycle %d rank %d reformed launch: %v", cy, rank, err)
					return
				}
				if err := fut2.Wait(p); err != nil {
					t.Errorf("cycle %d rank %d reformed wait: %v", cy, rank, err)
					return
				}
				for i, r2 := range survivors {
					if r2 == rank {
						reformedSplits[i] = re.Stats().BytesSentBy
					}
				}
				if err := re.Close(p); err != nil {
					t.Errorf("cycle %d rank %d close: %v", cy, rank, err)
				}
				endWork.Wait(p)
				revived.Wait(p)
			}
			if rank != victim {
				sys.Init(p, rank).Destroy(p)
			}
		})
	}
	e.Spawn("coordinator", func(p *sim.Process) {
		for cy := 0; cy < cycles; cy++ {
			endWork.Wait(p)
			// The victim's abort drain may still be in flight; retry
			// until ReviveRank accepts (it refuses while outstanding).
			for sys.ReviveRank(victim) != nil {
				p.Sleep(5 * sim.Microsecond)
			}
			revived.Wait(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v (blocked: %v)", err, e.BlockedProcesses())
	}

	// Boundedness: two shapes ever built (full set + survivor set), so
	// Created() must not scale with cycles. The survivor-set comm is
	// recreated only if the pool failed to recycle it.
	if got := sys.CommsCreated(); got > 2 {
		t.Fatalf("CommsCreated = %d after %d kill/revive cycles, want ≤ 2", got, cycles)
	}

	// Transport-split equivalence: a fresh system opening the survivor
	// group directly must see the identical per-transport wiring.
	fresh := sim.NewEngine()
	fresh.MaxTime = sim.Time(600 * sim.Second)
	freshSys := NewSystem(fresh, topo.MultiNode3090(2), DefaultConfig())
	freshSplits := runHierOnce(t, freshSys, survivors, count, "fresh")
	for i := range survivors {
		if reformedSplits[i] != freshSplits[i] {
			t.Errorf("survivor pos %d: reformed split %+v != fresh split %+v", i, reformedSplits[i], freshSplits[i])
		}
	}
}
