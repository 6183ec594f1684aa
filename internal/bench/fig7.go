package bench

import (
	"fmt"
	"io"

	"dfccl/internal/core"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// fig7 prints the workload-independent overheads of Sec. 6.2 / Fig. 7
// beside the paper's values, the end-to-end latency per CQ variant, and
// the communicator pool's behavior under the v2 lifecycle's open/close
// churn. The per-component values are the library's calibrated
// constants (they are the model — Fig. 7(b) of the paper measures the
// same fixed hardware costs); the end-to-end measurements exercise the
// real code path. Its gates: CQE write costs order vanilla ring >
// optimized ring > optimized CQ, one 1 KB all-reduce through the full
// SQ → daemon → CQ → poller path takes at least the sum of its
// components, and the vanilla ring's end-to-end latency is no faster
// than the optimized CQ's.
func fig7(w io.Writer, _ Opts) error {
	variants := []core.CQVariant{core.CQVanillaRing, core.CQOptimizedRing, core.CQOptimized}
	var cqe [3]sim.Duration
	for i, v := range variants {
		cqe[i] = core.NewCQ(v, 8).WriteCost()
	}
	readSQE, preparing := core.ReadSQETime, core.ParseSQETime+core.LoadContextTime
	shared, global, globalShared := core.MemoryFootprint(1000)
	fmt.Fprintln(w, "Fig 7(b) — time components for a collective in the daemon kernel:")
	fmt.Fprintf(w, "  read SQE:             %v   (paper: 5.3us)\n", readSQE)
	fmt.Fprintf(w, "  preparing overheads:  %v   (paper: 1.2us)\n", preparing)
	fmt.Fprintf(w, "  write CQE (optimized):%v   (paper: 2.0us)\n", cqe[2])
	fmt.Fprintln(w, "Fig 7(c) — CQE write time per CQ implementation:")
	fmt.Fprintf(w, "  vanilla ring buffer:  %v   (paper: 6.9us)\n", cqe[0])
	fmt.Fprintf(w, "  optimized ring buffer:%v   (paper: 4.8us)\n", cqe[1])
	fmt.Fprintf(w, "  optimized CQ:         %v   (paper: 2.0us)\n", cqe[2])
	fmt.Fprintln(w, "Context switching:")
	fmt.Fprintf(w, "  load context:         %v   (paper: ~0.45us)\n", core.LoadContextTime)
	fmt.Fprintf(w, "  save context (lazy):  %v   (paper: ~0.05us)\n", core.SaveContextTime)
	fmt.Fprintln(w, "Memory overheads for 1000 registered collectives (Sec 6.2):")
	fmt.Fprintf(w, "  shared memory / block: %d B  (paper: 13KB)\n", shared)
	fmt.Fprintf(w, "  global memory / block: %d B  (paper: 4MB)\n", global)
	fmt.Fprintf(w, "  global shared:         %d B  (paper: 11KB)\n", globalShared)
	if !(cqe[0] > cqe[1] && cqe[1] > cqe[2]) {
		return fmt.Errorf("CQE write costs %v / %v / %v are not ordered vanilla ring > optimized ring > optimized", cqe[0], cqe[1], cqe[2])
	}

	// e2e measures one 1 KB all-reduce on eight 3090s under conf.
	e2e := func(conf core.Config, iters int) (sim.Duration, error) {
		cfg := CollConfig{Cluster: topo.Server3090(8), Kind: prim.AllReduce, Bytes: 1 << 10, Iters: iters, Warmup: 1}
		res, err := MeasureDFCCL(cfg, conf)
		return res.E2E, err
	}
	measured, err := e2e(core.DefaultConfig(), 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Consistency check — measured e2e of a 1KB all-reduce: %v\n", measured)
	if sum := readSQE + preparing + cqe[2]; measured < sum {
		return fmt.Errorf("measured e2e %v is below the sum of its components %v", measured, sum)
	}

	fmt.Fprintln(w, "End-to-end small-collective latency per CQ variant:")
	var sweep [3]sim.Duration
	for i, v := range variants {
		conf := core.DefaultConfig()
		conf.CQVariant = v
		if sweep[i], err = e2e(conf, 5); err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-16v %v\n", v, sweep[i])
	}
	if sweep[0] < sweep[2] {
		return fmt.Errorf("vanilla ring CQ e2e %v is faster than the optimized CQ's %v", sweep[0], sweep[2])
	}
	return poolChurn(w, 4, 8)
}
