package dfccl_test

import (
	"math/rand"
	"runtime"
	"testing"

	"dfccl"
)

func TestFacadeQuickstart(t *testing.T) {
	const n, count = 4, 256
	lib := dfccl.New(dfccl.Server3090(n))
	lib.SetTimeLimit(10 * dfccl.Second)
	ranks := []int{0, 1, 2, 3}
	results := make([]*dfccl.Buffer, n)
	for rank := 0; rank < n; rank++ {
		rank := rank
		lib.Go("rank", func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			coll, err := ctx.Open(dfccl.AllReduce(count, dfccl.Float64, dfccl.Sum, ranks...), dfccl.WithCollID(1))
			if err != nil {
				t.Errorf("register: %v", err)
				return
			}
			send := dfccl.NewBuffer(dfccl.Float64, count)
			recv := dfccl.NewBuffer(dfccl.Float64, count)
			send.Fill(float64(rank + 1))
			results[rank] = recv
			if err := coll.LaunchCB(p, send, recv, nil); err != nil {
				t.Errorf("run: %v", err)
				return
			}
			ctx.WaitAll(p)
			ctx.Destroy(p)
		})
	}
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for rank, r := range results {
		if got := r.Float64At(0); got != 10 {
			t.Fatalf("rank %d = %v, want 10", rank, got)
		}
	}
}

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

// TestRelaunchAllocationBudget holds the launch path to an allocation
// budget: one AllReduce(1024) over 8 ranks, opened once and relaunched
// in lock-step, may cost at most 5 heap allocations per rank-launch
// (4.07 measured: the run request and the callback RankContext.Run
// queues, Launch's completion closure, the future with its condition
// inside, and the odd daemon restart). A CQ that allocates its pending
// list again after every drain is one more (5.07), and so is a condition
// allocated per future; a chunk buffer allocated per connector Write —
// 14 a rank-launch here — puts it above 20.
func TestRelaunchAllocationBudget(t *testing.T) {
	const n, count, warm, measured = 8, 1024, 10, 50
	ranks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// mallocs runs the whole simulation with the given launches per rank
	// and returns the heap allocations it made.
	mallocs := func(launches int) uint64 {
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
					fut, err := coll.Launch(p, send, recv)
					if err == nil {
						err = fut.Wait(p)
					}
					if err != nil {
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
				ctx.Destroy(p)
			})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := lib.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// Set-up (Init, Open, the first launches' connector buffers) is in
	// both runs and cancels.
	perLaunch := float64(mallocs(warm+measured)-mallocs(warm)) / (measured * n)
	t.Logf("%.2f allocations per rank-launch", perLaunch)
	if perLaunch > 5 {
		t.Errorf("%.2f allocations per rank-launch, budget 5", perLaunch)
	}
}
