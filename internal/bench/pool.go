package bench

import (
	"dfccl/internal/core"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// PoolChurnResult reports communicator-pool behavior under open/close
// churn of dynamic collective groups.
type PoolChurnResult struct {
	Cycles int
	// Created is how many communicators were ever constructed; with
	// Close returning them to the pool it stays at the number of
	// distinct concurrently-live rank sets (here 1), independent of
	// Cycles.
	Created int
	// Pooled is how many communicators sat in the pool at the end.
	Pooled int
	// Completed is the total collective runs completed across cycles.
	Completed int
}

// PoolChurn opens, launches, awaits, and closes a fresh collective
// group per cycle over the same GPUs: the dynamic-groups lifecycle
// that leaks communicators without Unregister. Each cycle uses a new
// collective ID, so a flat Created count demonstrates end-to-end pool
// recycling through Close.
func PoolChurn(nGPUs, cycles int) (PoolChurnResult, error) {
	d := deploy(topo.Server3090(nGPUs), core.DefaultConfig())
	ranks := seqRanks(nGPUs)
	bar := sim.NewBarrier("bench.barrier", nGPUs)
	res := PoolChurnResult{Cycles: cycles}
	err := d.run("bench.pool", func(p *sim.Process, rc *core.RankContext) error {
		for cy := 0; cy < cycles; cy++ {
			coll, err := rc.Open(collSpec(4<<10, ranks), core.WithCollID(100+cy))
			if err != nil {
				return err
			}
			fut, err := coll.Launch(p, zeroBuf(), zeroBuf())
			if err != nil {
				return err
			}
			if err := fut.Wait(p); err != nil {
				return err
			}
			res.Completed++
			if err := coll.Close(p); err != nil {
				return err
			}
			// All ranks must close (returning the communicator to
			// the pool) before any rank opens the next group,
			// otherwise the next acquire cannot reuse it.
			bar.Wait(p)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Created = d.sys.CommsCreated()
	res.Pooled = d.sys.CommsPooled()
	return res, nil
}
