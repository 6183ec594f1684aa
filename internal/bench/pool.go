package bench

import (
	"fmt"
	"io"

	"dfccl/internal/core"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// poolChurn opens, launches, awaits, and closes a fresh collective
// group per cycle over the same GPUs: the dynamic-groups lifecycle
// that leaks communicators without Unregister. Each cycle uses a new
// collective ID, so a count of communicators ever created that stays
// at the number of concurrently-live rank sets (here 1) whatever the
// cycles demonstrates end-to-end pool recycling through Close.
func poolChurn(w io.Writer, nGPUs, cycles int) error {
	d := deploy(topo.Server3090(nGPUs), core.DefaultConfig())
	ranks := seqRanks(nGPUs)
	bar := sim.NewBarrier("bench.barrier", nGPUs)
	completed := 0
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
			completed++
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
		return err
	}
	fmt.Fprintln(w, "Communicator pool under open/close churn (v2 lifecycle):")
	fmt.Fprintf(w, "  %d cycles × fresh collective group: %d communicator(s) created, %d pooled, %d runs completed\n",
		cycles, d.sys.CommsCreated(), d.sys.CommsPooled(), completed)
	return nil
}
