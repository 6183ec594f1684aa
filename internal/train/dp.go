package train

import (
	"fmt"

	"dfccl/internal/mem"
	"dfccl/internal/metrics"
	"dfccl/internal/orch"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// OptimizerTime is the per-iteration optimizer step cost.
const OptimizerTime = 20 * sim.Millisecond

// Result carries a training run's measurements.
type Result struct {
	Backend string
	// Throughput is average samples/second over all iterations.
	Throughput float64
	// IterTimes records rank-0 per-iteration wall times in seconds.
	IterTimes *metrics.Series
	// Elapsed is the total virtual time.
	Elapsed sim.Duration
	// A2ABytes totals the semantic dispatch/combine payload the MoE
	// workload moved across all ranks and iterations — the bytes a
	// padded AllToAll inflates and AllToAllv does not. Zero for non-MoE
	// workloads.
	A2ABytes int64
	// OutputHash fingerprints the MoE combined token outputs (FNV-1a
	// over the IEEE-754 bits in iteration/rank/token/element order), so
	// two dispatch layouts can be compared for bit-identical results
	// across runs. Note RunMoE already pins every output element to the
	// serial reference in-run, so for two *successful* runs of the same
	// config equal hashes are expected; the hash is the reported,
	// directly comparable witness of that, and stays meaningful if the
	// in-run check is ever relaxed to a tolerance. Zero for non-MoE
	// workloads.
	OutputHash uint64
}

// runRanks runs body once per rank 0..n-1 on backend b, drives the
// simulation to completion (sim.Engine.RunRanks gives the error
// contract), and closes the run's Result: total virtual time and the
// throughput of samples over it.
func runRanks(e *sim.Engine, b orch.Backend, name string, n, samples int, body func(p *sim.Process, rank int, res *Result) error) (*Result, error) {
	res := &Result{Backend: b.Name(), IterTimes: &metrics.Series{}}
	err := e.RunRanks(name, n, func(p *sim.Process, rank int) error { return body(p, rank, res) })
	if err != nil {
		return nil, fmt.Errorf("train: %s: %w", b.Name(), err)
	}
	res.Elapsed = sim.Duration(e.Now())
	if res.Elapsed > 0 {
		res.Throughput = float64(samples) / (float64(res.Elapsed) / float64(sim.Second))
	}
	return res, nil
}

// DPConfig configures a data-parallel training run (Fig. 10, Fig. 11,
// Fig. 12(a)).
type DPConfig struct {
	Model       Model
	BatchPerGPU int
	Iterations  int
	// Priority registers gradients with DFCCL priorities so collectives
	// arriving later (shallower layers, needed first next iteration)
	// preempt deeper ones — the paper's practical priority scheme.
	Priority bool
	// Disorder shuffles each rank's gradient launch order per iteration
	// (only safe with DFCCL; used to demonstrate order independence).
	Disorder func(rank, iter int, order []int)
	// StragglerRank, when StragglerDelay > 0, delays that rank's
	// collective launches — the burst scenario of the paper's Fig. 11
	// case study ("GPU 2 slightly delays issuing collectives").
	StragglerRank  int
	StragglerDelay sim.Duration
}

// RunDP trains the model with data parallelism across all GPUs of the
// cluster using the given backend, and returns throughput results.
func RunDP(e *sim.Engine, cluster *topo.Cluster, b orch.Backend, cfg DPConfig) (*Result, error) {
	n := cluster.Size()
	if cfg.Iterations <= 0 || cfg.BatchPerGPU <= 0 {
		return nil, fmt.Errorf("train: bad DP config %+v", cfg)
	}
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	return runRanks(e, b, "train.dp", n, n*cfg.BatchPerGPU*cfg.Iterations, func(p *sim.Process, rank int, res *Result) error {
		speed := SpeedFactor(cluster.GPUs[rank].Model)
		scale := func(d sim.Duration) sim.Duration {
			return sim.Duration(float64(d) * speed * float64(cfg.BatchPerGPU))
		}
		for li, layer := range cfg.Model.Layers {
			prio := 0
			if cfg.Priority {
				prio = len(cfg.Model.Layers) - li // shallow layers highest
			}
			spec := prim.Spec{
				Kind: prim.AllReduce, Count: layer.GradElems,
				Type: mem.Float32, Op: mem.Sum, Ranks: ranks, TimingOnly: true,
			}
			if err := b.Register(p, rank, li, spec, prio, nil, nil); err != nil {
				return err
			}
		}
		order := make([]int, len(cfg.Model.Layers))
		for it := 0; it < cfg.Iterations; it++ {
			start := p.Now()
			// Forward pass.
			var fwd sim.Duration
			for _, l := range cfg.Model.Layers {
				fwd += scale(l.FwdPerSample)
			}
			p.Sleep(fwd)
			// Backward pass: deepest layer first; each gradient
			// becomes ready as its layer's backward completes.
			for i := range order {
				order[i] = len(cfg.Model.Layers) - 1 - i
			}
			if cfg.Disorder != nil {
				cfg.Disorder(rank, it, order)
			}
			for _, li := range order {
				p.Sleep(scale(cfg.Model.Layers[li].BwdPerSample))
				if cfg.StragglerDelay > 0 && rank == cfg.StragglerRank {
					p.Sleep(cfg.StragglerDelay)
				}
				if err := b.Launch(p, rank, li); err != nil {
					return err
				}
			}
			b.WaitAll(p, rank)
			p.Sleep(OptimizerTime)
			if rank == 0 {
				res.IterTimes.Add(float64(p.Now().Sub(start)) / float64(sim.Second))
			}
		}
		b.Teardown(p, rank)
		return nil
	})
}
