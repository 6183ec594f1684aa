// Hybrid-parallel deadlock scenario: two GPUs invoke two collectives
// in opposite orders with a cudaDeviceSynchronize in between — the
// paper's Fig. 1(d), which deadlocks NCCL even with ample resources.
// DFCCL's daemon kernel voluntarily quits so the synchronization can
// complete, then resumes the stuck collectives: everything finishes.
//
// On the v2 API the circular dependency is just two Launch calls per
// rank (in opposite orders) and two future waits.
//
//	go run ./examples/hybridparallel
package main

import (
	"fmt"
	"log"

	"dfccl"
)

func main() {
	const count = 64 << 10
	lib := dfccl.New(dfccl.Server3090(2))
	lib.SetTimeLimit(60 * dfccl.Second) // a real deadlock would trip this
	ranks := []int{0, 1}

	quits := make([]int, 2)
	for rank := 0; rank < 2; rank++ {
		rank := rank
		lib.Go(fmt.Sprintf("rank%d", rank), func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			spec := dfccl.AllReduce(count, dfccl.Float32, dfccl.Sum, ranks...)
			a, err := ctx.Open(spec, dfccl.WithCollID(0))
			if err != nil {
				log.Fatalf("open: %v", err)
			}
			b, err := ctx.Open(spec, dfccl.WithCollID(1))
			if err != nil {
				log.Fatalf("open: %v", err)
			}
			// GPU 0 invokes A then B; GPU 1 invokes B then A: the
			// disordered invocation of Fig. 1.
			first, second := a, b
			if rank == 1 {
				first, second = b, a
			}
			launch := func(c *dfccl.Collective) *dfccl.Future {
				fut, err := c.Launch(p,
					dfccl.NewBuffer(dfccl.Float32, count),
					dfccl.NewBuffer(dfccl.Float32, count))
				if err != nil {
					log.Fatalf("launch: %v", err)
				}
				return fut
			}
			f1 := launch(first)
			// Explicit GPU synchronization between the two invocations:
			// with NCCL this completes the circular wait (Fig. 1(d));
			// with DFCCL the daemon kernel quits voluntarily, the sync
			// completes, and the collectives resume afterwards.
			ctx.DeviceSynchronize(p)
			f2 := launch(second)
			if err := f1.Wait(p); err != nil {
				log.Fatalf("wait: %v", err)
			}
			if err := f2.Wait(p); err != nil {
				log.Fatalf("wait: %v", err)
			}
			quits[rank] = ctx.Stats.VoluntaryQuits
			for _, c := range []*dfccl.Collective{a, b} {
				if err := c.Close(p); err != nil {
					log.Fatalf("close: %v", err)
				}
			}
			ctx.Destroy(p)
		})
	}
	if err := lib.Run(); err != nil {
		log.Fatalf("DEADLOCK (this must not happen with DFCCL): %v", err)
	}
	fmt.Println("disordered collectives with device synchronization completed deadlock-free")
	fmt.Printf("voluntary daemon quits: gpu0=%d gpu1=%d (the quits let the syncs complete)\n", quits[0], quits[1])
	fmt.Printf("virtual time: %v\n", lib.Now())
	fmt.Println("(the same program against an NCCL-style library deadlocks; see cmd/trainbench -fig sec61-nccl)")
}
