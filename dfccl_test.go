package dfccl_test

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dfccl"
)

func TestFacadeDisorderedOrdersComplete(t *testing.T) {
	// The signature capability: random per-rank invocation order.
	const n, nColl = 4, 6
	lib := dfccl.New(dfccl.Server3090(n))
	lib.SetTimeLimit(30 * dfccl.Second)
	ranks := []int{0, 1, 2, 3}
	rng := rand.New(rand.NewSource(9))
	orders := make([][]int, n)
	for i := range orders {
		orders[i] = rng.Perm(nColl)
	}
	completed := make([]int, n)
	for rank := 0; rank < n; rank++ {
		rank := rank
		lib.Go("rank", func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			var colls [nColl]*dfccl.Collective
			for c := range colls {
				var err error
				colls[c], err = ctx.Open(dfccl.AllReduce(128, dfccl.Float32, dfccl.Sum, ranks...), dfccl.WithCollID(c))
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
			for _, c := range orders[rank] {
				send := dfccl.NewBuffer(dfccl.Float32, 128)
				recv := dfccl.NewBuffer(dfccl.Float32, 128)
				if err := colls[c].LaunchCB(p, send, recv, func(error) { completed[rank]++ }); err != nil {
					t.Errorf("run: %v", err)
					return
				}
			}
			ctx.WaitAll(p)
			ctx.Destroy(p)
		})
	}
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for rank, c := range completed {
		if c != nColl {
			t.Fatalf("rank %d completed %d, want %d", rank, c, nColl)
		}
	}
}

// TestOpenRejectsUnevenReduceScatter: every rank of a reduce-scatter
// receives Count/N elements, so a Count that N does not divide has no
// recv layout. Open refuses it rather than handing the daemon a
// collective whose copy-out cannot fit.
func TestOpenRejectsUnevenReduceScatter(t *testing.T) {
	lib := dfccl.New(dfccl.Server3090(4))
	lib.Go("rank", func(p *dfccl.Process) {
		ctx := lib.Init(p, 0)
		if _, err := ctx.Open(dfccl.ReduceScatter(10, dfccl.Float32, dfccl.Sum, 0, 1, 2, 3)); err == nil {
			t.Error("Open accepted a 10-element reduce-scatter over 4 ranks")
		}
		ctx.Destroy(p)
	})
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestOpenRejectsRanksOutsideCluster: a spec naming a rank the cluster
// lacks is refused with a typed error before registration, so it leaves
// no group and takes no communicator from the pool.
func TestOpenRejectsRanksOutsideCluster(t *testing.T) {
	lib := dfccl.New(dfccl.Server3090(8))
	sys := lib.System()
	lib.Go("rank", func(p *dfccl.Process) {
		ctx := lib.Init(p, 0)
		if _, err := ctx.Open(dfccl.AllReduce(16, dfccl.Float32, dfccl.Sum, 0, 1), dfccl.WithCollID(1)); err != nil {
			t.Errorf("open over ranks 0, 1: %v", err)
		}
		for _, bad := range []int{99, 8, -1} {
			registered, comms := sys.NumRegistered(), sys.CommsCreated()
			_, err := ctx.Open(dfccl.AllReduce(16, dfccl.Float32, dfccl.Sum, 0, bad))
			var rangeErr *dfccl.RankRangeError
			if !errors.As(err, &rangeErr) || rangeErr.Rank != bad || rangeErr.Size != 8 {
				t.Errorf("Open over ranks 0, %d = %v, want a RankRangeError for rank %d of 8", bad, err, bad)
			}
			if sys.NumRegistered() != registered || sys.CommsCreated() != comms {
				t.Errorf("Open over ranks 0, %d left %d groups and %d communicators, want %d and %d",
					bad, sys.NumRegistered(), sys.CommsCreated(), registered, comms)
			}
		}
		ctx.Destroy(p)
	})
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestOpenRejectsGridOverDeviceCapacity: a grid no member's device can
// hold is refused at Open, before registration, instead of surfacing as
// a panic when the daemon kernel is launched at it. A grid of exactly
// the device's SM count still runs.
func TestOpenRejectsGridOverDeviceCapacity(t *testing.T) {
	lib := dfccl.New(dfccl.Server3090(2))
	lib.SetTimeLimit(dfccl.Second)
	sys := lib.System()
	sms := sys.Device(0).MaxResidentBlocks
	for rank := 0; rank < 2; rank++ {
		lib.Go("rank", func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			if rank == 0 {
				registered := sys.NumRegistered()
				if _, err := ctx.Open(dfccl.AllReduce(16, dfccl.Float32, dfccl.Sum, 0, 1), dfccl.WithGrid(100000)); err == nil {
					t.Errorf("Open accepted a grid of 100000 blocks on a %d-SM device", sms)
				}
				if sys.NumRegistered() != registered {
					t.Errorf("the refused Open left %d groups, want %d", sys.NumRegistered(), registered)
				}
			}
			coll, err := ctx.Open(dfccl.AllReduce(16, dfccl.Float32, dfccl.Sum, 0, 1), dfccl.WithCollID(1), dfccl.WithGrid(sms))
			if err != nil {
				t.Errorf("open at grid %d: %v", sms, err)
				return
			}
			send, recv := dfccl.NewBuffer(dfccl.Float32, 16), dfccl.NewBuffer(dfccl.Float32, 16)
			send.Fill(float64(rank + 1))
			if err := futureLaunch(p, ctx, coll, send, recv); err != nil {
				t.Errorf("launch at grid %d: %v", sms, err)
			}
			if got := recv.Float64At(0); got != 3 {
				t.Errorf("rank %d: sum = %v, want 3", rank, got)
			}
			ctx.Destroy(p)
		})
	}
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFacadeTimeAdvances(t *testing.T) {
	lib := dfccl.New(dfccl.Server3090(2))
	lib.Go("sleeper", func(p *dfccl.Process) { p.Sleep(3 * dfccl.Millisecond) })
	if err := lib.Run(); err != nil {
		t.Fatal(err)
	}
	if lib.Now() != 3*dfccl.Millisecond {
		t.Fatalf("Now = %v", lib.Now())
	}
}

// relaunchMallocs runs one AllReduce(1024) over 8 ranks, opened once and
// launched in lock-step: every rank pauses for gap, makes one launch with
// launch and waits for it, launches times. It returns the heap
// allocations the whole simulation made, their bytes, and the daemon
// starts of all ranks.
func relaunchMallocs(t *testing.T, launches int, gap dfccl.Duration, launch func(p *dfccl.Process, ctx *dfccl.RankContext, coll *dfccl.Collective, send, recv *dfccl.Buffer) error) (mallocs, bytes uint64, starts int) {
	t.Helper()
	const n, count = 8, 1024
	ranks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	lib := dfccl.New(dfccl.Server3090(n))
	lib.SetTimeLimit(10 * dfccl.Second)
	for rank := 0; rank < n; rank++ {
		send := dfccl.NewBuffer(dfccl.Float32, count)
		recv := dfccl.NewBuffer(dfccl.Float32, count)
		send.Fill(float64(rank + 1))
		lib.Go("rank", func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			coll, err := ctx.Open(dfccl.AllReduce(count, dfccl.Float32, dfccl.Sum, ranks...), dfccl.WithCollID(1))
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			for i := 0; i < launches; i++ {
				p.Sleep(gap)
				if err := launch(p, ctx, coll, send, recv); err != nil {
					t.Errorf("launch %d: %v", i, err)
					return
				}
			}
			if got := recv.Float64At(count - 1); got != n*(n+1)/2 {
				t.Errorf("rank %d: sum = %v, want %d", rank, got, n*(n+1)/2)
			}
			if err := coll.Close(p); err != nil {
				t.Errorf("close: %v", err)
			}
			starts += ctx.Stats.DaemonStarts
			ctx.Destroy(p)
		})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, starts
}

// futureLaunch launches with Launch and waits for the future.
func futureLaunch(p *dfccl.Process, _ *dfccl.RankContext, coll *dfccl.Collective, send, recv *dfccl.Buffer) error {
	fut, err := coll.Launch(p, send, recv)
	if err == nil {
		err = fut.Wait(p)
	}
	return err
}

// callbackLaunch launches with LaunchCB and a callback made once, and
// waits for the rank to go idle.
func callbackLaunch() func(p *dfccl.Process, ctx *dfccl.RankContext, coll *dfccl.Collective, send, recv *dfccl.Buffer) error {
	var runErr error
	cb := func(err error) { runErr = err }
	return func(p *dfccl.Process, ctx *dfccl.RankContext, coll *dfccl.Collective, send, recv *dfccl.Buffer) error {
		if err := coll.LaunchCB(p, send, recv, cb); err != nil {
			return err
		}
		ctx.WaitAll(p)
		return runErr
	}
}

// TestRelaunchAllocationBudget holds the launch path to an allocation
// budget: one AllReduce(1024) over 8 ranks, opened once and relaunched
// in lock-step, may cost at most 1.1 heap allocations and 56 bytes per
// rank-launch with Launch (1.00 and 48 measured: the Future, its
// condition inside, in the 48-byte size class) and 0.1 and 8 bytes with
// LaunchCB (0.00 and 0). Mutants it catches: a launch FIFO re-sliced
// from the front, so that every append reallocates its array, adds 1 to
// both (two such FIFOs, the run queue and a callback map, added 2); a
// closure per Launch adds 1 to Launch, and so do a CQ that allocates its
// pending list again after every drain and a condition allocated per
// future; a chunk buffer allocated per connector Write adds 14; a Future
// one size class up costs 64 bytes, and the one with a waiter slice and
// an engine pointer cost 96. Under -race the detector's own allocations
// move the counts by up to 0.1, so the budgets there are 1.2 and 0.2,
// still below every mutant, and the bytes go unchecked.
func TestRelaunchAllocationBudget(t *testing.T) {
	const n, warm, measured = 8, 10, 500
	for _, c := range []struct {
		name               string
		launch             func(p *dfccl.Process, ctx *dfccl.RankContext, coll *dfccl.Collective, send, recv *dfccl.Buffer) error
		budget, raceBudget float64
		bytesBudget        float64
	}{
		{"Launch", futureLaunch, 1.1, 1.2, 56},
		{"LaunchCB", callbackLaunch(), 0.1, 0.2, 8},
	} {
		budget := c.budget
		if raceEnabled {
			budget = c.raceBudget
		}
		// Set-up (Init, Open, the first launches' connector buffers) is in
		// both runs and cancels. With more than one CPU the runtime's own
		// allocations vary by up to ~10 kB from run to run (under
		// GOMAXPROCS=1 they do not): 4 000 rank-launches make that 3 bytes
		// per launch at most.
		long, longBytes, _ := relaunchMallocs(t, warm+measured, 0, c.launch)
		short, shortBytes, _ := relaunchMallocs(t, warm, 0, c.launch)
		perLaunch := (float64(long) - float64(short)) / (measured * n)
		bytesPerLaunch := (float64(longBytes) - float64(shortBytes)) / (measured * n)
		t.Logf("%s: %.2f allocations, %.1f bytes per rank-launch", c.name, perLaunch, bytesPerLaunch)
		if perLaunch > budget {
			t.Errorf("%s: %.2f allocations per rank-launch, budget %g", c.name, perLaunch, budget)
		}
		if !raceEnabled && bytesPerLaunch > c.bytesBudget {
			t.Errorf("%s: %.1f bytes per rank-launch, budget %g", c.name, bytesPerLaunch, c.bytesBudget)
		}
	}
}

// TestDaemonRestartAllocationBudget pins what a daemon restart allocates:
// launches spaced 1 ms apart, past the 200 µs quit period, find the
// daemon quit every time, so each one relaunches the kernel. A restart
// costs 3 heap allocations: the kernel instance, which holds its done
// condition and its KernelCtx, the process that runs the kernel body,
// and the body's closure. The budget is 3.5. A daemon kernel built again
// per restart, its name and its body closure, adds 2, and so does a
// process name formatted per launch; a KernelCtx allocated per start adds
// 1, and so does a stream queue re-sliced from the front, whose every
// launch reallocates its array. With all of these, and a named done
// condition per launch, a restart cost 10.
func TestDaemonRestartAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations for the process each restart starts vary by ±0.4")
	}
	const warm, measured = 4, 20
	launch := callbackLaunch()
	long, _, longStarts := relaunchMallocs(t, warm+measured, dfccl.Millisecond, launch)
	short, _, shortStarts := relaunchMallocs(t, warm, dfccl.Millisecond, launch)
	restarts := longStarts - shortStarts
	if restarts != measured*8 {
		t.Fatalf("%d daemon restarts over %d spaced rank-launches, want one each", restarts, measured*8)
	}
	perRestart := (float64(long) - float64(short)) / float64(restarts)
	t.Logf("%.2f allocations per daemon restart", perRestart)
	if perRestart > 3.5 {
		t.Errorf("%.2f allocations per daemon restart, budget 3.5", perRestart)
	}
}

// lifecycleMallocs runs the 16 ranks of a two-node cluster through
// rounds rounds of the collective lifecycle. In each round every rank
// opens opens all-reduces over all 16 ranks under IDs 1..opens, if
// launch is set launches each once and waits for it, then closes them
// all, and sleeps 1 ms so that every rank has closed before any opens
// again: the last Close of a round returns the round's communicators to
// the pool, and the next round's Opens take them back. If shift is set,
// rank r sits round r out, so that every round opens over a rank set
// no earlier round did. It returns the heap allocations and the bytes
// the whole simulation allocated, and the communicators it built.
func lifecycleMallocs(t *testing.T, rounds, opens int, launch, shift bool) (mallocs, bytes uint64, comms int) {
	t.Helper()
	const count = 1024
	lib := dfccl.New(dfccl.MultiNode3090(2))
	lib.SetTimeLimit(10 * dfccl.Second)
	n := lib.System().Cluster.Size()
	ranks := make([][]int, max(rounds, 1))
	for r := range ranks {
		for i := 0; i < n; i++ {
			if !shift || i != r%n {
				ranks[r] = append(ranks[r], i)
			}
		}
	}
	for rank := 0; rank < n; rank++ {
		send := dfccl.NewBuffer(dfccl.Float32, count)
		recv := dfccl.NewBuffer(dfccl.Float32, count)
		send.Fill(1)
		colls := make([]*dfccl.Collective, opens)
		lib.Go("rank", func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			for r := 0; r < rounds; r++ {
				if !slices.Contains(ranks[r], rank) {
					p.Sleep(dfccl.Millisecond)
					continue
				}
				for i := range colls {
					var err error
					if colls[i], err = ctx.Open(dfccl.AllReduce(count, dfccl.Float32, dfccl.Sum, ranks[r]...), dfccl.WithCollID(1+i), dfccl.WithPriority(1)); err != nil {
						t.Errorf("open: %v", err)
						return
					}
				}
				for _, c := range colls {
					if !launch {
						break
					}
					if err := futureLaunch(p, ctx, c, send, recv); err != nil {
						t.Errorf("launch: %v", err)
						return
					}
					if got, want := recv.Float64At(count-1), float64(len(ranks[r])); got != want {
						t.Errorf("rank %d: sum = %v, want %v", rank, got, want)
					}
				}
				for _, c := range colls {
					if err := c.Close(p); err != nil {
						t.Errorf("close: %v", err)
					}
				}
				p.Sleep(dfccl.Millisecond)
			}
			ctx.Destroy(p)
		})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, lib.System().CommsCreated()
}

// TestOpenCloseAllocationBudget holds the rest of the collective
// lifecycle to allocation budgets, per rank of a 16-rank all-reduce:
//
//   - An Open → Launch → Close cycle on a pooled communicator costs 5.4
//     allocations: the handle, the future, a daemon restart, and the
//     rank's share of the group. The task, its executor, plan and launch
//     FIFO come from the free list the last round's Closes filled. The
//     budget is 5.9.
//   - The same cycle over a rank set no earlier round used costs 5.9:
//     its communicator is new, but its connectors are the ones the last
//     round's Closes gave back to the connector pool (8.0 when each
//     communicator built its own). The budget is 7.
//   - A cold Open, one whose communicator is built for it, costs 6.4
//     with its Close: the registration, and the rank's share of the
//     group and of the ring's connectors. Ranks open in turn, so all but
//     the first take the tasks an earlier rank's Closes released. The
//     budget is 7.
//   - Init allocates ≈ 2.2 KiB (2.5 KiB under -race), and the budget is
//     8 KiB: a submission queue allocated at its 4096-slot bound is
//     64 KiB.
//
// Mutants they catch: options that are closures, applied to an openOpts
// that escapes, add 3 to both Open counts (two options per Open); an
// abort hook made per registration, not bound once per group, adds 1; a
// map in Spec.Validate's duplicate-rank check adds 6 (16 ranks put its
// buckets on the heap, and Open validates twice: itself and through the
// plan builder); a task Close does not recycle adds 7 to the pooled
// cycle and 5.6 to the cold Open; a communicator that builds its
// connectors, pooled ones idle, adds 2 to the reopen (a connector and
// its slots per rank). The counts under -race are within
// 0.35 of these, so the budgets hold and the mutants fail there too.
func TestOpenCloseAllocationBudget(t *testing.T) {
	const n, warm, measured = 16, 2, 20
	long, _, comms := lifecycleMallocs(t, warm+measured, 1, true, false)
	short, _, _ := lifecycleMallocs(t, warm, 1, true, false)
	if comms != 1 {
		t.Fatalf("%d communicators built over %d rounds, want 1 from the pool", comms, warm+measured)
	}
	perCycle := (float64(long) - float64(short)) / (measured * n)
	t.Logf("%.2f allocations per rank per pooled Open → Launch → Close", perCycle)
	if perCycle > 5.9 {
		t.Errorf("%.2f allocations per rank per pooled Open → Launch → Close, budget 5.9", perCycle)
	}

	// Reopens over a new rank set: every round misses the communicator
	// pool, and its communicator takes the connectors the last round's
	// Closes gave back.
	// The n rank sets that leave one rank out are all new to the pool.
	const shifted = 12
	long, _, comms = lifecycleMallocs(t, warm+shifted, 1, true, true)
	short, _, _ = lifecycleMallocs(t, warm, 1, true, true)
	if comms != warm+shifted {
		t.Fatalf("%d communicators built over %d rounds on rank sets that shift, want one each", comms, warm+shifted)
	}
	perReopen := (float64(long) - float64(short)) / (shifted * (n - 1))
	t.Logf("%.2f allocations per rank per Open → Launch → Close over a new rank set", perReopen)
	if perReopen > 7 {
		t.Errorf("%.2f allocations per rank per Open → Launch → Close over a new rank set, budget 7", perReopen)
	}

	// Cold Opens: one round, opening more collectives at once, each on a
	// communicator of its own.
	const few, many = 2, 22
	long, _, comms = lifecycleMallocs(t, 1, many, false, false)
	short, _, _ = lifecycleMallocs(t, 1, few, false, false)
	if comms != many {
		t.Fatalf("%d communicators built for %d open collectives, want one each", comms, many)
	}
	perOpen := (float64(long) - float64(short)) / ((many - few) * n)
	t.Logf("%.2f allocations per rank per cold Open and its Close", perOpen)
	if perOpen > 7 {
		t.Errorf("%.2f allocations per rank per cold Open and its Close, budget 7", perOpen)
	}

	// Init: a deployment whose ranks only Init and Destroy, less one whose
	// ranks do nothing at all.
	_, withInit, _ := lifecycleMallocs(t, 0, 0, false, false)
	lib := dfccl.New(dfccl.MultiNode3090(2))
	for rank := 0; rank < n; rank++ {
		lib.Go("rank", func(p *dfccl.Process) {})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	runtime.ReadMemStats(&after)
	perInit := (float64(withInit) - float64(after.TotalAlloc-before.TotalAlloc)) / n
	t.Logf("%.0f bytes per Init", perInit)
	if perInit > 8<<10 {
		t.Errorf("%.0f bytes per Init, budget %d", perInit, 8<<10)
	}
}
