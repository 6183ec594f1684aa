package bench

import (
	"fmt"
	"io"

	"dfccl/internal/core"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// Fig7Result carries the workload-independent overheads of Sec. 6.2 /
// Fig. 7: the daemon-kernel time components and the CQE write cost of
// each completion-queue implementation, plus the memory overheads.
type Fig7Result struct {
	// Fig. 7(b): time components for a collective's execution in the
	// daemon kernel (all-reduce on eight 3090 GPUs).
	ReadSQE   sim.Duration
	Preparing sim.Duration // parse SQE + load context
	WriteCQE  sim.Duration // optimized CQ

	// Fig. 7(c): CQE write time per CQ implementation.
	CQEVanillaRing   sim.Duration
	CQEOptimizedRing sim.Duration
	CQEOptimized     sim.Duration

	// Context switch costs (Sec. 6.2 prose).
	ContextLoad sim.Duration
	ContextSave sim.Duration

	// Memory overheads for 1,000 registered collectives (Sec. 6.2).
	SharedPerBlock int
	GlobalPerBlock int
	GlobalShared   int

	// MeasuredE2E cross-checks the model: end-to-end latency of one
	// small all-reduce through the full SQ → daemon → CQ → poller
	// path, which must exceed the sum of its components.
	MeasuredE2E sim.Duration
}

// Fig7 reports the overhead breakdown. The per-component values are
// the library's calibrated constants (they are the model — Fig. 7(b)
// of the paper measures the same fixed hardware costs); the end-to-end
// measurement exercises the real code path as a consistency check.
func Fig7() (Fig7Result, error) {
	r := Fig7Result{
		ReadSQE:          core.ReadSQETime,
		Preparing:        core.ParseSQETime + core.LoadContextTime,
		CQEVanillaRing:   core.NewCQ(core.CQVanillaRing, 8).WriteCost(),
		CQEOptimizedRing: core.NewCQ(core.CQOptimizedRing, 8).WriteCost(),
		CQEOptimized:     core.NewCQ(core.CQOptimized, 8).WriteCost(),
		ContextLoad:      core.LoadContextTime,
		ContextSave:      core.SaveContextTime,
	}
	r.WriteCQE = r.CQEOptimized
	r.SharedPerBlock, r.GlobalPerBlock, r.GlobalShared = core.MemoryFootprint(1000)

	cfg := CollConfig{Cluster: topo.Server3090(8), Kind: prim.AllReduce, Bytes: 1 << 10, Iters: 3, Warmup: 1}
	res, err := MeasureDFCCL(cfg, core.DefaultConfig())
	if err != nil {
		return r, err
	}
	r.MeasuredE2E = res.E2E
	return r, nil
}

// Fig7CQSweep measures the end-to-end effect of the three CQ variants
// on a stream of small collectives — the ablation behind Fig. 7(c).
func Fig7CQSweep() (map[core.CQVariant]sim.Duration, error) {
	out := make(map[core.CQVariant]sim.Duration)
	for _, v := range []core.CQVariant{core.CQVanillaRing, core.CQOptimizedRing, core.CQOptimized} {
		conf := core.DefaultConfig()
		conf.CQVariant = v
		cfg := CollConfig{Cluster: topo.Server3090(8), Kind: prim.AllReduce, Bytes: 1 << 10, Iters: 5, Warmup: 1}
		res, err := MeasureDFCCL(cfg, conf)
		if err != nil {
			return nil, err
		}
		out[v] = res.E2E
	}
	return out, nil
}

// fig7 prints the overhead breakdown beside the paper's values, the
// end-to-end latency per CQ variant, and the communicator pool's
// behavior under the v2 lifecycle's open/close churn.
func fig7(w io.Writer, _ Opts) error {
	r, err := Fig7()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Fig 7(b) — time components for a collective in the daemon kernel:")
	fmt.Fprintf(w, "  read SQE:             %v   (paper: 5.3us)\n", r.ReadSQE)
	fmt.Fprintf(w, "  preparing overheads:  %v   (paper: 1.2us)\n", r.Preparing)
	fmt.Fprintf(w, "  write CQE (optimized):%v   (paper: 2.0us)\n", r.WriteCQE)
	fmt.Fprintln(w, "Fig 7(c) — CQE write time per CQ implementation:")
	fmt.Fprintf(w, "  vanilla ring buffer:  %v   (paper: 6.9us)\n", r.CQEVanillaRing)
	fmt.Fprintf(w, "  optimized ring buffer:%v   (paper: 4.8us)\n", r.CQEOptimizedRing)
	fmt.Fprintf(w, "  optimized CQ:         %v   (paper: 2.0us)\n", r.CQEOptimized)
	fmt.Fprintln(w, "Context switching:")
	fmt.Fprintf(w, "  load context:         %v   (paper: ~0.45us)\n", r.ContextLoad)
	fmt.Fprintf(w, "  save context (lazy):  %v   (paper: ~0.05us)\n", r.ContextSave)
	fmt.Fprintln(w, "Memory overheads for 1000 registered collectives (Sec 6.2):")
	fmt.Fprintf(w, "  shared memory / block: %d B  (paper: 13KB)\n", r.SharedPerBlock)
	fmt.Fprintf(w, "  global memory / block: %d B  (paper: 4MB)\n", r.GlobalPerBlock)
	fmt.Fprintf(w, "  global shared:         %d B  (paper: 11KB)\n", r.GlobalShared)
	fmt.Fprintf(w, "Consistency check — measured e2e of a 1KB all-reduce: %v\n", r.MeasuredE2E)

	sweep, err := Fig7CQSweep()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "End-to-end small-collective latency per CQ variant:")
	for _, v := range []core.CQVariant{core.CQVanillaRing, core.CQOptimizedRing, core.CQOptimized} {
		fmt.Fprintf(w, "  %-16v %v\n", v, sweep[v])
	}
	return poolChurn(w, 4, 8)
}
