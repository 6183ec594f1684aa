package bench

import (
	"fmt"
	"io"

	"dfccl/internal/core"
	"dfccl/internal/orch"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/train"
)

// figAblations measures DESIGN.md's called-out design choices with
// each switched the other way, one "label value" line per measurement.
func figAblations(w io.Writer, _ Opts) error {
	metric := func(label string, value float64) { fmt.Fprintf(w, "  %-28s %10.3f\n", label, value) }

	fmt.Fprintln(w, "lazy context saving (program 1, 5 iterations): context saves, elapsed ms")
	for _, always := range []bool{false, true} {
		cfg := core.DefaultConfig()
		cfg.AlwaysSaveContext = always
		res, err := sec61Run(cfg, 5, 7, false)
		if err != nil {
			return err
		}
		label := "lazy"
		if always {
			label = "always"
		}
		metric(label+"-context-saves", float64(res.ContextSaves))
		metric(label+"-elapsed", float64(res.Elapsed)/1e6)
	}

	// Shorter periods unblock device synchronizations sooner but restart
	// the daemon more often.
	fmt.Fprintln(w, "daemon quit period (program 2, 3 iterations): elapsed ms, voluntary quits")
	for _, qp := range []sim.Duration{100 * sim.Microsecond, 200 * sim.Microsecond, 800 * sim.Microsecond} {
		cfg := core.DefaultConfig()
		cfg.QuitPeriod = qp
		res, err := sec61Run(cfg, 3, 7, true)
		if err != nil {
			return err
		}
		metric("quit="+qp.String()+"-elapsed", float64(res.Elapsed)/1e6)
		metric("quit="+qp.String()+"-quits", float64(res.VoluntaryQuits))
	}

	fmt.Fprintln(w, "ordering policy (ResNet50 DP on 4×3090, 3 iterations): samples/s")
	fifo, priority, err := AblationOrdering(3)
	if err != nil {
		return err
	}
	metric("fifo-samples/s", fifo)
	metric("priority-samples/s", priority)

	fmt.Fprintln(w, "batched SQE read (16×16 burst of tiny collectives on 2 GPUs): elapsed ms")
	perEntry, batched, err := AblationBatchedSQERead()
	if err != nil {
		return err
	}
	metric("per-entry-ms", perEntry)
	metric("batched-ms", batched)
	return nil
}

// AblationOrdering compares FIFO against priority ordering on the
// data-parallel training workload with priorities favoring shallow
// layers (the backward-overlap scheme of Sec. 4.3).
func AblationOrdering(iterations int) (fifo, priority float64, err error) {
	run := func(order core.OrderPolicy, usePriorities bool) (float64, error) {
		e := newEngine()
		cluster := topo.Server3090(4)
		cfg := core.DefaultConfig()
		cfg.Order = order
		b := orch.NewDFCCL(e, cluster, cfg)
		res, err := train.RunDP(e, cluster, b, train.DPConfig{
			Model: train.ResNet50(), BatchPerGPU: 48, Iterations: iterations,
			Priority: usePriorities,
		})
		if err != nil {
			return 0, err
		}
		return res.Throughput, nil
	}
	if fifo, err = run(core.OrderFIFO, false); err != nil {
		return
	}
	priority, err = run(core.OrderPriority, true)
	return
}

// sec61Workload draws the programs' seeded workload: a unique random
// launch order per GPU over nColl all-reduces of 256B-32KB.
func sec61Workload(nGPU, nColl int, seed int64) (orders [][]int, sizes []int) {
	orders = make([][]int, nGPU)
	rng := newSeededRNG(seed)
	for i := range orders {
		orders[i] = rng.Perm(nColl)
	}
	sizes = make([]int, nColl)
	for i := range sizes {
		sizes[i] = 64 << i
	}
	return orders, sizes
}

// sec61Run runs a Sec. 6.1 testing program over DFCCL under an explicit
// configuration: eight GPUs launch eight all-reduces per iteration,
// each GPU in its own order; withSync (program 2) inserts a device
// synchronization after every launch.
func sec61Run(cfg core.Config, iterations int, seed int64, withSync bool) (Sec61Result, error) {
	const nGPU, nColl = 8, 8
	orders, sizes := sec61Workload(nGPU, nColl, seed)
	d := deploy(topo.Server3090(nGPU), cfg)
	ranks := seqRanks(nGPU)
	res := Sec61Result{Program: "1", Lib: "dfccl"}
	if withSync {
		res.Program = "2"
	}
	err := d.run("sec61", func(p *sim.Process, rc *core.RankContext) error {
		colls := make([]*core.Collective, nColl)
		for c := range colls {
			coll, err := rc.Open(collSpec(sizes[c], ranks), core.WithCollID(c))
			if err != nil {
				return err
			}
			colls[c] = coll
		}
		send, recv := zeroBuf(), zeroBuf()
		for it := 0; it < iterations; it++ {
			for _, c := range orders[rc.Rank] {
				if err := colls[c].LaunchCB(p, send, recv, nil); err != nil {
					return err
				}
				if withSync {
					rc.DeviceSynchronize(p)
				}
			}
			rc.WaitAll(p)
		}
		res.Completed += rc.Completed()
		res.Preemptions += rc.Stats.Preemptions
		res.VoluntaryQuits += rc.Stats.VoluntaryQuits
		res.ContextSaves += rc.Stats.ContextSaves
		return nil
	})
	if err != nil && !stalled(err) {
		return res, err
	}
	res.Deadlocked = err != nil
	res.Elapsed = sim.Duration(d.e.Now())
	return res, nil
}

// AblationBatchedSQERead compares per-entry SQE reads against the
// batched-read I/O optimization (the paper's stated future work) on a
// latency-bound burst: two GPUs submit a deep backlog of tiny
// collectives at once, so SQE-read time is a visible fraction of the
// makespan. Reported values are total elapsed milliseconds.
func AblationBatchedSQERead() (perEntry, batched float64, err error) {
	run := func(batch bool) (float64, error) {
		cfg := core.DefaultConfig()
		cfg.BatchedSQERead = batch
		const nColl, burst = 16, 16
		d := deploy(topo.Server3090(2), cfg)
		ranks := seqRanks(2)
		err := d.run("burst", func(p *sim.Process, rc *core.RankContext) error {
			colls := make([]*core.Collective, nColl)
			for c := range colls {
				coll, err := rc.Open(collSpec(16, ranks), core.WithCollID(c))
				if err != nil {
					return err
				}
				colls[c] = coll
			}
			// The whole backlog is one Batch: burst×nColl runs
			// submitted at once, awaited through a joined future.
			items := make([]core.BatchItem, 0, burst*nColl)
			for i := 0; i < burst; i++ {
				for c := 0; c < nColl; c++ {
					items = append(items, core.BatchItem{C: colls[c], Send: zeroBuf(), Recv: zeroBuf()})
				}
			}
			fut, err := core.Batch(p, items...)
			if err != nil {
				return err
			}
			return fut.Wait(p)
		})
		return float64(d.e.Now()) / 1e6, err
	}
	if perEntry, err = run(false); err != nil {
		return
	}
	batched, err = run(true)
	return
}
