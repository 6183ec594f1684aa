package dfccl_test

import (
	"math/rand"
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
