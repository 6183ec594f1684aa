package bench

import (
	"fmt"
	"io"

	"dfccl/internal/core"
	"dfccl/internal/mem"
	"dfccl/internal/ncclsim"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// CollResult is one point of a Fig. 8 sweep or a Fig. 9 case study.
type CollResult struct {
	Lib   string
	Kind  prim.Kind
	GPUs  int
	Bytes int
	// E2E is invocation-to-completion latency (makespan across ranks),
	// averaged over iterations.
	E2E sim.Duration
	// CoreExec is the collective's on-GPU execution time (kernel run
	// time for NCCL; preparing overheads + primitive execution for
	// DFCCL), averaged over ranks and iterations.
	CoreExec sim.Duration
	// AlgoBW is algorithm bandwidth in GB/s.
	AlgoBW float64
}

// String renders the result as one aligned table line.
func (r CollResult) String() string {
	return fmt.Sprintf("%-7s %-14v %2d GPUs %8s  e2e=%-12v core=%-12v bw=%.3f GB/s",
		r.Lib, r.Kind, r.GPUs, HumanBytes(r.Bytes), r.E2E, r.CoreExec, r.AlgoBW)
}

// CollConfig describes one collective measurement.
type CollConfig struct {
	Cluster *topo.Cluster
	Kind    prim.Kind
	// Bytes is the payload size (count × element size).
	Bytes int
	Iters int
	// Warmup iterations excluded from measurement (daemon startup,
	// communicator setup).
	Warmup int
}

func (c CollConfig) count() int { return c.Bytes / mem.Float32.Size() }

func (c CollConfig) spec() prim.Spec {
	count := c.count()
	// NCCL-Tests convention: the plotted size is the aggregate buffer;
	// all-gather's per-rank contribution is size/N.
	if c.Kind == prim.AllGather {
		count = count / c.Cluster.Size()
		if count < 1 {
			count = 1
		}
	}
	return prim.Spec{
		Kind: c.Kind, Count: count, Type: mem.Float32, Op: mem.Sum,
		Ranks: seqRanks(c.Cluster.Size()), TimingOnly: true,
	}
}

// collMeter accumulates one measurement's per-iteration latencies:
// rank 0's invocation-to-completion time and every rank's on-GPU time.
type collMeter struct {
	cfg             CollConfig
	bar             *sim.Barrier
	e2eSum, coreSum sim.Duration
	measured        int
}

func newCollMeter(cfg CollConfig) *collMeter {
	return &collMeter{cfg: cfg, bar: sim.NewBarrier("bench.barrier", cfg.Cluster.Size())}
}

// iterate runs the warm-up and measured iterations of one rank: once
// (launch and wait, returning the run's core execution time) executes
// between two barriers so every iteration starts in lock-step.
func (m *collMeter) iterate(p *sim.Process, rank int, once func() (sim.Duration, error)) error {
	for it := 0; it < m.cfg.Warmup+m.cfg.Iters; it++ {
		m.bar.Wait(p)
		start := p.Now()
		coreExec, err := once()
		if err != nil {
			return err
		}
		if it >= m.cfg.Warmup {
			if rank == 0 {
				m.e2eSum += p.Now().Sub(start)
				m.measured++
			}
			m.coreSum += coreExec
		}
		m.bar.Wait(p)
	}
	return nil
}

// result averages the accumulated latencies; a failed run is reported
// under the library and configuration it measured.
func (m *collMeter) result(lib string, err error) (CollResult, error) {
	cfg, n := m.cfg, m.cfg.Cluster.Size()
	if err != nil {
		return CollResult{}, fmt.Errorf("bench: %s %v/%s: %w", lib, cfg.Kind, HumanBytes(cfg.Bytes), err)
	}
	e2e := m.e2eSum / sim.Duration(m.measured)
	res := CollResult{
		Lib: lib, Kind: cfg.Kind, GPUs: n, Bytes: cfg.Bytes,
		E2E:      e2e,
		CoreExec: m.coreSum / sim.Duration(m.measured*n),
	}
	if e2e > 0 {
		res.AlgoBW = float64(cfg.Bytes) / float64(e2e) // bytes/ns == GB/s
	}
	return res, nil
}

// MeasureNCCL runs the collective over the NCCL baseline.
func MeasureNCCL(cfg CollConfig) (CollResult, error) {
	e := newEngine()
	lib := ncclsim.New(e, cfg.Cluster)
	spec := cfg.spec()
	comm := lib.NewComm(spec.Ranks)
	m := newCollMeter(cfg)
	err := e.RunRanks("bench.nccl", cfg.Cluster.Size(), func(p *sim.Process, rank int) error {
		st := lib.Device(rank).NewStream()
		send, recv := zeroBuf(), zeroBuf()
		return m.iterate(p, rank, func() (sim.Duration, error) {
			k := comm.Launch(p, st, rank, spec, send, recv)
			k.Wait(p)
			return k.CompletedAt.Sub(k.StartedAt), nil
		})
	})
	return m.result("nccl", err)
}

// MeasureDFCCL runs the collective over DFCCL.
func MeasureDFCCL(cfg CollConfig, conf core.Config) (CollResult, error) {
	d := deploy(cfg.Cluster, conf)
	spec := cfg.spec()
	m := newCollMeter(cfg)
	err := d.run("bench.dfccl", func(p *sim.Process, rc *core.RankContext) error {
		coll, err := rc.Open(spec)
		if err != nil {
			return err
		}
		send, recv := zeroBuf(), zeroBuf()
		if err := m.iterate(p, rc.Rank, func() (sim.Duration, error) {
			fut, err := coll.Launch(p, send, recv)
			if err != nil {
				return 0, err
			}
			if err := fut.Wait(p); err != nil {
				return 0, err
			}
			return fut.CoreExecTime(), nil
		}); err != nil {
			return err
		}
		return coll.Close(p)
	})
	return m.result("dfccl", err)
}

// measureBoth runs cfg over the NCCL baseline, then over DFCCL.
func measureBoth(cfg CollConfig) (nccl, dfccl CollResult, err error) {
	if nccl, err = MeasureNCCL(cfg); err != nil {
		return nccl, dfccl, err
	}
	dfccl, err = MeasureDFCCL(cfg, core.DefaultConfig())
	return nccl, dfccl, err
}

// printFig8 sweeps buffer sizes of kind over cluster and prints the
// bandwidth/latency comparison of Fig. 8. iters=5 matches the paper's
// methodology (averaging repeated runs).
func printFig8(w io.Writer, cluster *topo.Cluster, kind prim.Kind, minBytes, maxBytes, iters int) error {
	fmt.Fprintf(w, "%8s  %14s %14s  %14s %14s\n", "size", "nccl-bw(GB/s)", "dfccl-bw(GB/s)", "nccl-lat", "dfccl-lat")
	for _, bytes := range SizeSweep(minBytes, maxBytes) {
		n, d, err := measureBoth(CollConfig{Cluster: cluster, Kind: kind, Bytes: bytes, Iters: iters, Warmup: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8s  %14.3f %14.3f  %14v %14v\n", HumanBytes(bytes), n.AlgoBW, d.AlgoBW, n.E2E, d.E2E)
	}
	return nil
}

// fig8a, fig8b and fig8c are the paper's three sweeps.
func fig8a(w io.Writer, o Opts) error {
	return printFig8(w, topo.Server3080Ti(8), prim.Broadcast, 512, 4<<20, o.Iters)
}

func fig8b(w io.Writer, o Opts) error {
	return printFig8(w, topo.Server3090(8), prim.AllReduce, 512, 4<<20, o.Iters)
}

func fig8c(w io.Writer, o Opts) error {
	return printFig8(w, topo.MultiNode3090(4), prim.AllReduce, 2<<10, 16<<20, o.Iters)
}

// collKinds are the collectives -coll names (by their prim.Kind
// strings): the five the timing-only sweep can measure.
var collKinds = []prim.Kind{prim.AllReduce, prim.AllGather, prim.ReduceScatter, prim.Broadcast, prim.Reduce}

func parseKind(s string) (prim.Kind, error) {
	for _, k := range collKinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("-coll %q: want one of %v", s, collKinds)
}

// fig8Cluster is -fig 8's deployment of gpus 3090s: one server up to
// eight, 8-GPU nodes beyond.
func fig8Cluster(gpus int) *topo.Cluster {
	if gpus > 8 {
		return topo.MultiNode3090((gpus + 7) / 8)
	}
	return topo.Server3090(gpus)
}

// fig8 is the custom sweep: -coll over fig8Cluster(-gpus) from -min to
// -max bytes.
func fig8(w io.Writer, o Opts) error {
	kind, err := parseKind(o.Coll)
	if err != nil {
		return err
	}
	return printFig8(w, fig8Cluster(o.GPUs), kind, o.Min, o.Max, o.Iters)
}

// fig9 runs the all-gather small/large case study (4KB and 4MB on
// eight 3090s), reporting end-to-end latency and core execution time.
// Its gate is the figure's shape: at 4MB DFCCL's core execution is
// shorter than NCCL's (the resident daemon kernel amortizes kernel
// startup).
func fig9(w io.Writer, o Opts) error {
	cluster := topo.Server3090(8)
	for _, bytes := range []int{4 << 10, 4 << 20} {
		n, d, err := measureBoth(CollConfig{Cluster: cluster, Kind: prim.AllGather, Bytes: bytes, Iters: o.Iters, Warmup: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "all-gather %s:\n  %v\n  %v\n", HumanBytes(bytes), n, d)
		if bytes == 4<<20 && d.CoreExec >= n.CoreExec {
			return fmt.Errorf("4M: dfccl core execution %v not below nccl's %v", d.CoreExec, n.CoreExec)
		}
	}
	return nil
}

// figSec21 reproduces the Sec. 2.1 motivation on eight 3090s: the
// all-reduce of a 32K–4M buffer over NCCL and over a host-staged
// CUDA-aware-MPI-style implementation.
func figSec21(w io.Writer, _ Opts) error {
	cluster := topo.Server3090(8)
	ranks := seqRanks(8)
	fmt.Fprintln(w, "all-reduce on 8×3090: NCCL vs host-staged CUDA-aware MPI")
	fmt.Fprintf(w, "%8s  %14s %14s  %8s\n", "size", "nccl", "mpi", "speedup")
	best := 0.0
	for _, bytes := range SizeSweep(32<<10, 4<<20) {
		cfg := CollConfig{Cluster: cluster, Kind: prim.AllReduce, Bytes: bytes, Iters: 3, Warmup: 1}
		nres, err := MeasureNCCL(cfg)
		if err != nil {
			return err
		}
		e := sim.NewEngine()
		count := bytes / mem.Float32.Size()
		sendBufs := make([]*mem.Buffer, len(ranks))
		recvBufs := make([]*mem.Buffer, len(ranks))
		for i := range sendBufs {
			sendBufs[i] = mem.NewBuffer(mem.Float32, count)
			recvBufs[i] = mem.NewBuffer(mem.Float32, count)
		}
		mpiEnd, err := ncclsim.MPIAllReduce(e, cluster, ranks, count, mem.Float32, mem.Sum, sendBufs, recvBufs)
		if err != nil {
			return err
		}
		speedup := float64(mpiEnd) / float64(nres.E2E)
		best = max(best, speedup)
		fmt.Fprintf(w, "%8s  %14v %14v  %7.2fx\n", HumanBytes(bytes), nres.E2E, sim.Duration(mpiEnd), speedup)
	}
	fmt.Fprintf(w, "max NCCL speedup over MPI: %.2fx   (paper: NCCL ahead beyond ~32KB, by up to 6.7x)\n", best)
	return nil
}
