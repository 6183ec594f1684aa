package train

import (
	"fmt"

	"dfccl/internal/mem"
	"dfccl/internal/orch"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// ZeROConfig configures ZeRO/FSDP-style sharded data parallelism: the
// optimizer state is always sharded across ranks; stage 2 additionally
// shards gradients (per-layer ReduceScatter instead of AllReduce), and
// stage 3 shards parameters too (per-layer AllGather before forward
// and backward compute, FSDP's just-in-time materialization).
type ZeROConfig struct {
	Model Model
	// Stage selects the sharding level: 1, 2, or 3.
	Stage int
	// Ranks is the data-parallel world size.
	Ranks int
	// BatchPerGPU scales per-layer compute time.
	BatchPerGPU int
	Iterations  int
	// Churn opens the iteration's per-layer collectives fresh each
	// iteration and closes them after — the open/close load ZeRO's
	// layer-granular communication puts on the communicator pool.
	Churn bool
	// Disorder permutes a rank's per-layer collective launch order
	// within the gradient and gather phases (only safe with DFCCL; the
	// single-stream NCCL baseline deadlocks on it).
	Disorder func(rank, iter int, order []int)
}

func (c ZeROConfig) validate(cluster *topo.Cluster) error {
	if c.Stage < 1 || c.Stage > 3 {
		return fmt.Errorf("train: ZeRO stage %d out of range", c.Stage)
	}
	if c.Ranks < 1 || c.Iterations < 1 || c.BatchPerGPU < 1 || len(c.Model.Layers) == 0 {
		return fmt.Errorf("train: bad ZeRO config %+v", c)
	}
	if c.Ranks > cluster.Size() {
		return fmt.Errorf("train: ZeRO config needs %d GPUs, cluster has %d", c.Ranks, cluster.Size())
	}
	return nil
}

// zeroGrad is the deterministic local gradient of rank r for element i
// of a layer at an iteration: small integers in [-3, 3], so cross-rank
// sums and momentum updates stay exact.
func zeroGrad(r, layer, it, i int) float64 {
	return float64((i+layer+3*it+r)%7 - 3)
}

// zeroInitParam is the deterministic initial parameter value.
func zeroInitParam(layer, i int) float64 {
	return float64((layer*5 + i) % 17)
}

// zeroLR and zeroMomentum are the SGD-with-momentum hyperparameters:
// 0.5 keeps every update exact in float64, and thus bit-for-bit
// comparable with the unsharded reference.
const zeroLR, zeroMomentum = 0.5, 0.5

// ZeRO collective-ID space (kept below core.AutoCollIDBase and clear
// of the MoE ranges).
const (
	zeroCollBase   = 700_000
	zeroSlotGrad   = 0 // AllReduce (stage 1) or ReduceScatter (stage 2/3)
	zeroSlotGather = 1 // parameter AllGather (stage 1/2 post-step, stage 3 fwd)
	zeroSlotBwdAG  = 2 // stage 3 backward re-gather
	zeroSlotKinds  = 4
)

// zeroLayerState is one rank's buffers for one layer.
type zeroLayerState struct {
	padded, shardLen int
	params           *mem.Buffer // full (padded) parameters, AllGather recv
	paramShard       *mem.Buffer // this rank's owned shard, AllGather send
	gradFull         *mem.Buffer // local full gradient, AR/RS send
	gradSum          *mem.Buffer // AR recv (stage 1)
	gradShard        *mem.Buffer // RS recv (stage 2/3)
	momShard         []float64   // sharded optimizer state (momentum)
}

// RunZeRO trains the model under ZeRO sharded data parallelism on the
// given backend, carrying real parameter and gradient data: every
// rank's gradients are exchanged per layer (AllReduce for stage 1,
// ReduceScatter for stages 2-3), the optimizer updates only its
// parameter shard and sharded momentum, and AllGathers rebuild the
// full parameters. At the end the sharded run is compared bit-for-bit
// against an unsharded single-node reference (parameters and momentum
// shards); any divergence is returned as an error.
func RunZeRO(e *sim.Engine, cluster *topo.Cluster, b orch.Backend, cfg ZeROConfig) (*Result, error) {
	if err := cfg.validate(cluster); err != nil {
		return nil, err
	}
	bar := sim.NewBarrier("train.barrier", cfg.Ranks)
	return runRanks(e, b, fmt.Sprintf("train.zero%d", cfg.Stage), cfg.Ranks, cfg.Ranks*cfg.BatchPerGPU*cfg.Iterations, func(p *sim.Process, rank int, res *Result) error {
		return runZeRORank(p, cluster, b, cfg, rank, bar, res)
	})
}

func runZeRORank(p *sim.Process, cluster *topo.Cluster, b orch.Backend, cfg ZeROConfig, rank int, bar *sim.Barrier, res *Result) error {
	n := cfg.Ranks
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	nLayers := len(cfg.Model.Layers)
	speed := SpeedFactor(cluster.GPUs[rank].Model)
	scale := func(d sim.Duration) sim.Duration {
		return sim.Duration(float64(d) * speed * float64(cfg.BatchPerGPU))
	}

	// Per-layer state: parameters start identical on every rank; each
	// rank owns shard [rank*shardLen, (rank+1)*shardLen).
	layers := make([]*zeroLayerState, nLayers)
	for li, l := range cfg.Model.Layers {
		padded := (l.GradElems + n - 1) / n * n
		st := &zeroLayerState{
			padded:     padded,
			shardLen:   padded / n,
			params:     mem.NewBuffer(mem.Float64, padded),
			paramShard: mem.NewBuffer(mem.Float64, padded/n),
			gradFull:   mem.NewBuffer(mem.Float64, padded),
			gradSum:    mem.NewBuffer(mem.Float64, padded),
			gradShard:  mem.NewBuffer(mem.Float64, padded/n),
			momShard:   make([]float64, padded/n),
		}
		for i := 0; i < padded; i++ {
			st.params.SetFloat64(i, zeroInitParam(li, i))
		}
		for i := 0; i < st.shardLen; i++ {
			st.paramShard.SetFloat64(i, zeroInitParam(li, rank*st.shardLen+i))
		}
		layers[li] = st
	}

	collID := func(it, li, slot int) int {
		if !cfg.Churn {
			it = 0
		}
		return zeroCollBase + (it*nLayers+li)*zeroSlotKinds + slot
	}
	registerIter := func(it int) error {
		for li, st := range layers {
			var gradSpec prim.Spec
			if cfg.Stage == 1 {
				gradSpec = prim.Spec{Kind: prim.AllReduce, Count: st.padded, Type: mem.Float64, Op: mem.Sum, Ranks: ranks}
				if err := b.Register(p, rank, collID(it, li, zeroSlotGrad), gradSpec, 0, st.gradFull, st.gradSum); err != nil {
					return err
				}
			} else {
				gradSpec = prim.Spec{Kind: prim.ReduceScatter, Count: st.padded, Type: mem.Float64, Op: mem.Sum, Ranks: ranks}
				if err := b.Register(p, rank, collID(it, li, zeroSlotGrad), gradSpec, 0, st.gradFull, st.gradShard); err != nil {
					return err
				}
			}
			agSpec := prim.Spec{Kind: prim.AllGather, Count: st.shardLen, Type: mem.Float64, Ranks: ranks}
			if err := b.Register(p, rank, collID(it, li, zeroSlotGather), agSpec, 0, st.paramShard, st.params); err != nil {
				return err
			}
			if cfg.Stage == 3 {
				if err := b.Register(p, rank, collID(it, li, zeroSlotBwdAG), agSpec, 0, st.paramShard, st.params); err != nil {
					return err
				}
			}
		}
		return nil
	}
	deregisterIter := func(it int) error {
		for li := range layers {
			for _, slot := range []int{zeroSlotGrad, zeroSlotGather, zeroSlotBwdAG} {
				if slot == zeroSlotBwdAG && cfg.Stage != 3 {
					continue
				}
				if err := b.Deregister(p, rank, collID(it, li, slot)); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if !cfg.Churn {
		if err := registerIter(0); err != nil {
			return err
		}
	}

	order := make([]int, nLayers)
	for it := 0; it < cfg.Iterations; it++ {
		start := p.Now()
		if cfg.Churn {
			if err := registerIter(it); err != nil {
				return err
			}
		}

		// Forward pass. Stage 3 materializes each layer's full
		// parameters from the shards just in time.
		for li, l := range cfg.Model.Layers {
			if cfg.Stage == 3 {
				if err := b.Launch(p, rank, collID(it, li, zeroSlotGather)); err != nil {
					return err
				}
				b.Wait(p, rank, collID(it, li, zeroSlotGather))
			}
			p.Sleep(scale(l.FwdPerSample))
		}

		// Backward pass (deepest layer first): compute local gradients,
		// then launch the gradient collectives in (possibly disordered)
		// per-rank order.
		for i := range order {
			order[i] = nLayers - 1 - i
		}
		if cfg.Disorder != nil {
			cfg.Disorder(rank, it, order)
		}
		for _, li := range order {
			st := layers[li]
			if cfg.Stage == 3 {
				// FSDP re-gathers parameters for backward recompute.
				if err := b.Launch(p, rank, collID(it, li, zeroSlotBwdAG)); err != nil {
					return err
				}
				b.Wait(p, rank, collID(it, li, zeroSlotBwdAG))
			}
			p.Sleep(scale(cfg.Model.Layers[li].BwdPerSample))
			for i := 0; i < st.padded; i++ {
				st.gradFull.SetFloat64(i, zeroGrad(rank, li, it, i))
			}
			if err := b.Launch(p, rank, collID(it, li, zeroSlotGrad)); err != nil {
				return err
			}
		}
		b.WaitAll(p, rank)

		// Optimizer step on this rank's shard only: momentum (the
		// sharded optimizer state) and parameter shard.
		for _, st := range layers {
			for i := 0; i < st.shardLen; i++ {
				var g float64
				if cfg.Stage == 1 {
					g = st.gradSum.Float64At(rank*st.shardLen + i)
				} else {
					g = st.gradShard.Float64At(i)
				}
				st.momShard[i] = zeroMomentum*st.momShard[i] + g
				st.paramShard.SetFloat64(i, st.paramShard.Float64At(i)-zeroLR*st.momShard[i])
			}
		}
		p.Sleep(OptimizerTime)

		// Stages 1-2 rebuild the replicated parameters now; stage 3
		// keeps them sharded (the next forward re-gathers). The gather
		// phase launches in (possibly disordered) per-rank order.
		if cfg.Stage != 3 {
			for i := range order {
				order[i] = i
			}
			if cfg.Disorder != nil {
				cfg.Disorder(rank, it, order)
			}
			for _, li := range order {
				if err := b.Launch(p, rank, collID(it, li, zeroSlotGather)); err != nil {
					return err
				}
			}
			b.WaitAll(p, rank)
		}

		if cfg.Churn {
			if err := deregisterIter(it); err != nil {
				return err
			}
			// All ranks must close before the next iteration reopens,
			// so DFCCL's pool can recycle every communicator.
			bar.Wait(p)
		}
		if rank == 0 {
			res.IterTimes.Add(float64(p.Now().Sub(start)) / float64(sim.Second))
		}
	}

	// Stage 3 leaves parameters sharded: gather once for verification.
	if cfg.Stage == 3 {
		for li, st := range layers {
			agSpec := prim.Spec{Kind: prim.AllGather, Count: st.shardLen, Type: mem.Float64, Ranks: ranks}
			id := zeroCollBase + 300_000 + li
			if err := b.Register(p, rank, id, agSpec, 0, st.paramShard, st.params); err != nil {
				return err
			}
			if err := b.Launch(p, rank, id); err != nil {
				return err
			}
			b.Wait(p, rank, id)
		}
	}

	if err := verifyZeRORank(cfg, rank, layers); err != nil {
		return err
	}
	b.Teardown(p, rank)
	return nil
}

// verifyZeRORank replays the training run unsharded — full gradients
// summed across ranks, full momentum, full parameters — and compares
// the sharded run's replicated parameters and this rank's momentum
// shard bit-for-bit.
func verifyZeRORank(cfg ZeROConfig, rank int, layers []*zeroLayerState) error {
	n := cfg.Ranks
	for li, st := range layers {
		wRef := make([]float64, st.padded)
		mRef := make([]float64, st.padded)
		for i := range wRef {
			wRef[i] = zeroInitParam(li, i)
		}
		for it := 0; it < cfg.Iterations; it++ {
			for i := range wRef {
				var g float64
				for r := 0; r < n; r++ {
					g += zeroGrad(r, li, it, i)
				}
				mRef[i] = zeroMomentum*mRef[i] + g
				wRef[i] -= zeroLR * mRef[i]
			}
		}
		for i := 0; i < st.padded; i++ {
			if got := st.params.Float64At(i); got != wRef[i] {
				return fmt.Errorf("train: zero stage %d rank %d layer %d param %d = %v, want %v (unsharded reference)",
					cfg.Stage, rank, li, i, got, wRef[i])
			}
		}
		for i := 0; i < st.shardLen; i++ {
			if got := st.momShard[i]; got != mRef[rank*st.shardLen+i] {
				return fmt.Errorf("train: zero stage %d rank %d layer %d momentum shard elem %d = %v, want %v",
					cfg.Stage, rank, li, i, got, mRef[rank*st.shardLen+i])
			}
		}
	}
	return nil
}
