package train

import (
	"fmt"
	"math/rand"

	"dfccl/internal/mem"
	"dfccl/internal/orch"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// HybridConfig configures 3D-hybrid (TP × DP × PP) training, the
// Megatron-style setup of Figs. 12(b)-(d) and 13. Setting PP=1 and
// TP>1 yields pure tensor parallelism; TP=PP=1 degenerates to DP.
type HybridConfig struct {
	Model           Model
	TP, DP, PP      int
	MicrobatchSize  int
	NumMicrobatches int
	Iterations      int
	// JitterPct adds seeded per-layer compute-time noise (e.g. 0.02 =
	// ±2%), so per-iteration time variance — the paper's stability
	// metric (CoV, Sec. 6.4.3) — is observable in the deterministic
	// simulation. Zero disables jitter.
	JitterPct float64
	// JitterSeed seeds the noise; same seed, same run.
	JitterSeed int64
}

// GPUs returns the total GPU count the configuration needs.
func (c HybridConfig) GPUs() int { return c.TP * c.DP * c.PP }

// SamplesPerIteration returns the global batch.
func (c HybridConfig) SamplesPerIteration() int {
	return c.MicrobatchSize * c.NumMicrobatches * c.DP
}

// rank maps (tp, dp, pp) coordinates to a global rank, TP-fastest —
// the same layout as Megatron and the deadlocksim 3D grouping.
func (c HybridConfig) rank(tp, dp, pp int) int {
	return (pp*c.DP+dp)*c.TP + tp
}

// coords inverts rank.
func (c HybridConfig) coords(rank int) (tp, dp, pp int) {
	tp = rank % c.TP
	dp = (rank / c.TP) % c.DP
	pp = rank / (c.TP * c.DP)
	return
}

// stageLayers splits the model into PP contiguous stages.
func (c HybridConfig) stageLayers(stage int) (lo, hi int) {
	n := len(c.Model.Layers)
	per := n / c.PP
	rem := n % c.PP
	lo = stage*per + min(stage, rem)
	hi = lo + per
	if stage < rem {
		hi++
	}
	return
}

// Collective ID spaces. IDs must be unique per (layer, group): there
// is one TP collective per layer per TP group, one DP collective per
// layer per DP group, and one activation transfer per boundary per
// pipeline lane.
const (
	collTPBase     = 1_000_000 // + layer*groupStride + TP-group index
	collDPBase     = 2_000_000 // + layer*groupStride + DP-group index
	collFwdActBase = 3_000_000 // + boundary*groupStride + pipe lane
	collBwdActBase = 4_000_000
	groupStride    = 1_024
)

// RunHybrid trains under 3D-hybrid parallelism with a GPipe-style
// flush schedule (all microbatch forwards, then all backwards, then
// data-parallel gradient all-reduces).
//
// Substitution note: the paper's Megatron runs use 1F1B; GPipe
// preserves the communication pattern DFCCL is evaluated on (TP
// all-reduces inside layers, PP activation transfers between stages,
// DP gradient all-reduces at the end) with a simpler schedule. The
// comparison between backends is unaffected because both run the same
// schedule.
func RunHybrid(e *sim.Engine, cluster *topo.Cluster, b orch.Backend, cfg HybridConfig) (*Result, error) {
	if cfg.GPUs() > cluster.Size() {
		return nil, fmt.Errorf("train: config needs %d GPUs, cluster has %d", cfg.GPUs(), cluster.Size())
	}
	if cfg.NumMicrobatches < 1 || cfg.Iterations < 1 {
		return nil, fmt.Errorf("train: bad hybrid config %+v", cfg)
	}
	return runRanks(e, b, "train.3d", cfg.GPUs(), cfg.SamplesPerIteration()*cfg.Iterations, func(p *sim.Process, rank int, res *Result) error {
		return runHybridRank(p, cluster, b, cfg, rank, res)
	})
}

func runHybridRank(p *sim.Process, cluster *topo.Cluster, b orch.Backend, cfg HybridConfig, rank int, res *Result) error {
	tp, dp, pp := cfg.coords(rank)
	lo, hi := cfg.stageLayers(pp)
	speed := SpeedFactor(cluster.GPUs[rank].Model)
	var jitter *rand.Rand
	if cfg.JitterPct > 0 {
		jitter = rand.New(rand.NewSource(cfg.JitterSeed ^ int64(rank)<<20))
	}
	// iterFactor is redrawn once per iteration: iteration-scale noise
	// (input batch variation, clocks) is what the paper's CoV metric
	// captures; per-layer noise would average out.
	iterFactor := 1.0
	mbScale := func(d sim.Duration) sim.Duration {
		// TP shards layer compute across the TP group.
		t := float64(d) * speed * float64(cfg.MicrobatchSize) / float64(cfg.TP) * iterFactor
		if t < 0 {
			t = 0
		}
		return sim.Duration(t)
	}

	// Group rank lists.
	tpGroup := make([]int, cfg.TP)
	for i := range tpGroup {
		tpGroup[i] = cfg.rank(i, dp, pp)
	}
	dpGroup := make([]int, cfg.DP)
	for i := range dpGroup {
		dpGroup[i] = cfg.rank(tp, i, pp)
	}
	pipeLane := dp*cfg.TP + tp
	tpGroupIdx := pp*cfg.DP + dp
	dpGroupIdx := pp*cfg.TP + tp
	tpCollID := func(li int) int { return collTPBase + li*groupStride + tpGroupIdx }
	dpCollID := func(li int) int { return collDPBase + li*groupStride + dpGroupIdx }

	// Register TP activation all-reduces and DP gradient all-reduces.
	for li := lo; li < hi; li++ {
		l := cfg.Model.Layers[li]
		if cfg.TP > 1 && l.TPCommElems > 0 {
			spec := prim.Spec{
				Kind: prim.AllReduce, Count: l.TPCommElems * cfg.MicrobatchSize,
				Type: mem.Float32, Op: mem.Sum, Ranks: tpGroup, TimingOnly: true,
			}
			if err := b.Register(p, rank, tpCollID(li), spec, 0, nil, nil); err != nil {
				return err
			}
		}
		if cfg.DP > 1 {
			spec := prim.Spec{
				Kind: prim.AllReduce, Count: l.GradElems/cfg.TP + 1,
				Type: mem.Float32, Op: mem.Sum, Ranks: dpGroup, TimingOnly: true,
			}
			if err := b.Register(p, rank, dpCollID(li), spec, 0, nil, nil); err != nil {
				return err
			}
		}
	}
	// Register PP activation transfers (2-rank broadcast per boundary
	// and lane, one forward and one backward). The payload is the
	// activation size of the boundary's producing stage so both sides
	// register identical specs.
	boundaryAct := func(boundary int) int {
		_, bHi := cfg.stageLayers(boundary)
		act := cfg.Model.Layers[bHi-1].ActElems
		if act == 0 {
			act = 4096
		}
		return act
	}
	regP2P := func(base, boundary int, from, to int) (int, error) {
		id := base + boundary*groupStride + pipeLane
		spec := prim.Spec{
			Kind: prim.Broadcast, Count: boundaryAct(boundary) * cfg.MicrobatchSize,
			Type: mem.Float32, Root: 0, Ranks: []int{from, to}, TimingOnly: true,
		}
		return id, b.Register(p, rank, id, spec, 0, nil, nil)
	}
	var fwdIn, fwdOut, bwdIn, bwdOut = -1, -1, -1, -1
	var err error
	if pp > 0 { // receive activations from previous stage
		if fwdIn, err = regP2P(collFwdActBase, pp-1, cfg.rank(tp, dp, pp-1), rank); err != nil {
			return err
		}
		if bwdOut, err = regP2P(collBwdActBase, pp-1, rank, cfg.rank(tp, dp, pp-1)); err != nil {
			return err
		}
	}
	if pp < cfg.PP-1 {
		if fwdOut, err = regP2P(collFwdActBase, pp, rank, cfg.rank(tp, dp, pp+1)); err != nil {
			return err
		}
		if bwdIn, err = regP2P(collBwdActBase, pp, cfg.rank(tp, dp, pp+1), rank); err != nil {
			return err
		}
	}

	launch := func(id int) error { return b.Launch(p, rank, id) }
	runTP := func(li int) error {
		l := cfg.Model.Layers[li]
		if cfg.TP > 1 && l.TPCommElems > 0 {
			if err := launch(tpCollID(li)); err != nil {
				return err
			}
			b.Wait(p, rank, tpCollID(li))
		}
		return nil
	}

	for it := 0; it < cfg.Iterations; it++ {
		start := p.Now()
		if jitter != nil {
			iterFactor = 1 + cfg.JitterPct*jitter.NormFloat64()
			if iterFactor < 0.5 {
				iterFactor = 0.5
			}
		}
		// Forward microbatches.
		for mb := 0; mb < cfg.NumMicrobatches; mb++ {
			if fwdIn >= 0 {
				if err := launch(fwdIn); err != nil {
					return err
				}
				b.Wait(p, rank, fwdIn)
			}
			for li := lo; li < hi; li++ {
				p.Sleep(mbScale(cfg.Model.Layers[li].FwdPerSample))
				if err := runTP(li); err != nil {
					return err
				}
			}
			if fwdOut >= 0 {
				if err := launch(fwdOut); err != nil {
					return err
				}
			}
		}
		// Backward microbatches (reverse order).
		for mb := cfg.NumMicrobatches - 1; mb >= 0; mb-- {
			if bwdIn >= 0 {
				if err := launch(bwdIn); err != nil {
					return err
				}
				b.Wait(p, rank, bwdIn)
			}
			for li := hi - 1; li >= lo; li-- {
				p.Sleep(mbScale(cfg.Model.Layers[li].BwdPerSample))
				if err := runTP(li); err != nil {
					return err
				}
				if cfg.DP > 1 && mb == 0 {
					// Gradient ready after the last microbatch's bwd.
					if err := launch(dpCollID(li)); err != nil {
						return err
					}
				}
			}
			if bwdOut >= 0 {
				if err := launch(bwdOut); err != nil {
					return err
				}
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
}
