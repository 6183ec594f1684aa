package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"dfccl/internal/core"
	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// shape is a cluster of nodes × gpus RTX 3090s.
type shape struct{ nodes, gpus int }

// benchShapes are the node shapes the a2a, ar and collbench sweeps walk.
var benchShapes = []shape{{1, 4}, {2, 4}, {4, 4}}

// cell is one real-data collective measurement, the key every sweep of
// this package is an axis list over: a cluster shape, a collective, its
// size, an algorithm and a fabric.
type cell struct {
	shape
	kind prim.Kind
	// count is the per-rank Count, or the per-pair count of an
	// all-to-all-v whose counts matrix is nil (uniform).
	count  int
	counts [][]int
	algo   prim.Algorithm
	// oversub is the leaf and spine oversubscription of a shared fabric;
	// 0 prices every transfer on its own path (unshared).
	oversub float64
	// rec, when set, is installed as the deployment's flight recorder.
	rec *trace.Recorder
}

// at is the cell of kind at size elements per rank on s, its algorithm
// and fabric left to the caller: the one place a reduce-scatter's count
// is rounded up to a multiple of the rank count, so every share is
// whole.
func at(s shape, kind prim.Kind, size int) cell {
	c := cell{shape: s, kind: kind, count: size}
	if n := s.nodes * s.gpus; kind == prim.ReduceScatter {
		c.count = (size + n - 1) / n * n
	}
	return c
}

// benchCollVal is the deterministic send-buffer fill for the reduction
// collectives: small exact integers, so every reduction order is exact
// and cross-algorithm outputs compare byte for byte.
func benchCollVal(rank, i int) float64 {
	return float64(1 + (rank*37+i*13)%97)
}

// fillCollVal fills rank's send buffer with benchCollVal.
func fillCollVal(rank int, send *mem.Buffer) {
	for i := 0; i < send.Len(); i++ {
		send.SetFloat64(i, benchCollVal(rank, i))
	}
}

// CollRunRow is one measured collective run: end-to-end latency, the
// per-transport wire split, and — for AlgoAuto launches — the concrete
// algorithm the tuning table resolved to.
type CollRunRow struct {
	E2E                 sim.Duration
	SHMBytes, RDMABytes int
	Resolved            prim.Algorithm
	// Tiers is the per-tier link-utilization summary over the run when
	// the deployment's fabric is contended (nil otherwise).
	Tiers []fabric.TierUtil
}

// measure runs c once over the v2 handle API on a fresh deployment:
// every rank opens the collective, fills its send buffer (element i of
// all-to-all-v block src→dst holds 100000·src + 1000·dst + i + 1, every
// other kind holds benchCollVal) and launches once in lock-step. It
// returns the measured row plus every rank's recv bytes for
// cross-algorithm comparison.
func measure(c cell) (CollRunRow, [][]byte, error) {
	cluster := topo.NewCluster(c.nodes, c.gpus, topo.RTX3090, topo.DefaultLinks)
	n := cluster.Size()
	cfg := core.DefaultConfig()
	cfg.Recorder = c.rec
	if c.oversub > 0 {
		cfg.Network = fabric.Shared(cluster, fabric.OversubConfig(c.oversub))
	}
	spec := prim.Spec{Kind: c.kind, Count: c.count, Type: mem.Float64, Ranks: seqRanks(n), Algo: c.algo}
	switch c.kind {
	case prim.AllReduce, prim.ReduceScatter, prim.Reduce:
		spec.Op = mem.Sum
	case prim.AllToAllv:
		spec.Count, spec.Counts = 0, c.counts
		if spec.Counts == nil {
			spec.Counts = make([][]int, n)
			for i := range spec.Counts {
				spec.Counts[i] = make([]int, n)
				for j := range spec.Counts[i] {
					spec.Counts[i][j] = c.count
				}
			}
		}
	}

	d := deploy(cluster, cfg)
	bar := sim.NewBarrier("bench.barrier", n)
	var row CollRunRow
	outs := make([][]byte, n)
	err := d.run("bench.coll", func(p *sim.Process, rc *core.RankContext) error {
		rank := rc.Rank
		coll, err := rc.Open(spec)
		if err != nil {
			return err
		}
		if rank == 0 {
			row.Resolved = coll.Spec().Algo
		}
		sendCount, recvCount := prim.BufferCountsFor(coll.Spec(), rank)
		send := mem.NewBuffer(spec.Type, sendCount)
		recv := mem.NewBuffer(spec.Type, recvCount)
		if spec.Kind == prim.AllToAllv {
			// Filled through its bytes: spec.Type is float64.
			raw := send.Bytes()
			for dst, count := range spec.Counts[rank] {
				for i := 0; i < count; i++ {
					binary.LittleEndian.PutUint64(raw, math.Float64bits(float64(100000*rank+1000*dst+i+1)))
					raw = raw[8:]
				}
			}
		} else {
			fillCollVal(rank, send)
		}
		bar.Wait(p)
		start := p.Now()
		fut, err := coll.Launch(p, send, recv)
		if err != nil {
			return err
		}
		if err := fut.Wait(p); err != nil {
			return err
		}
		if rank == 0 {
			row.E2E = p.Now().Sub(start)
		}
		st := coll.Stats()
		row.SHMBytes += st.BytesSentBy.SHM
		row.RDMABytes += st.BytesSentBy.RDMA
		outs[rank] = append([]byte(nil), recv.Bytes()...)
		return coll.Close(p)
	})
	if err != nil {
		return row, nil, fmt.Errorf("bench: %v/%v: %w", spec.Kind, spec.Algo, err)
	}
	if net := cfg.Network; net != nil && net.Contended() {
		row.Tiers = fabric.TierSummary(net.Snapshot(), sim.Duration(d.e.Now()))
	}
	return row, outs, nil
}

// BenchCell is one row of the machine-readable benchmark matrix
// (BENCH.json): a collective size × shape × algorithm × fabric
// cell with its end-to-end latency and transport byte split, a
// fault-injection cell with its chaos-overhead column, or a
// tracing-overhead cell pinning the flight recorder's observer effect.
type BenchCell struct {
	// Figure tags the sweep this cell belongs to.
	Figure string `json:"figure"`
	// Nodes and GPUsPerNode give the cluster shape.
	Nodes       int `json:"nodes"`
	GPUsPerNode int `json:"gpus_per_node"`
	// Kind is the collective's NCCL-style name ("all-reduce",
	// "all-gather", …); empty on the a2abench and chaos cells, which are
	// all-to-all-v.
	Kind string `json:"kind,omitempty"`
	// Elems is the uniform per-pair element count (float64) for
	// all-to-all-v cells, and the per-rank Count for the other kinds.
	Elems int `json:"elems_per_pair"`
	// Algo is "ring" or "hierarchical".
	Algo string `json:"algo"`
	// Fabric is the pricing model: "unshared" or "oversub<F>".
	Fabric string `json:"fabric"`
	// Oversub is the oversubscription factor (0 for unshared).
	Oversub float64 `json:"oversub"`
	// E2ENs is the exchange's end-to-end latency in virtual ns.
	E2ENs int64 `json:"e2e_ns"`
	// SHMBytes and RDMABytes split the wire traffic by transport.
	SHMBytes  int `json:"shm_bytes"`
	RDMABytes int `json:"rdma_bytes"`
	// Workload tags chaos cells with their fault scenario ("" for
	// a2abench cells).
	Workload string `json:"workload,omitempty"`
	// ChaosOverheadNs is the chaos-overhead column: faulted virtual
	// runtime minus the fault-free runtime of the same training config
	// (0 for a2abench cells).
	ChaosOverheadNs int64 `json:"chaos_overhead_ns,omitempty"`
	// TraceOverheadNs is the tracing-overhead column on traceoverhead
	// cells: the virtual end-to-end latency with the flight recorder
	// installed minus the same run without it. The recorder spends no
	// virtual time, so the column is pinned at exactly 0 — any other
	// value means recording perturbed the simulated timeline.
	TraceOverheadNs int64 `json:"trace_overhead_ns"`
	// Policy and Jobs tag the multi-job contention cells (figure
	// "cluster") with their admission policy and trace length; E2ENs is
	// the run's makespan there.
	Policy string `json:"policy,omitempty"`
	Jobs   int    `json:"jobs,omitempty"`
	// P50Ns and P99Ns are job-sojourn percentiles over all jobs of a
	// cluster cell; HiPriP99Ns is the p99 over the high-priority class —
	// the column where the priority policy must beat FIFO.
	P50Ns      int64 `json:"p50_ns,omitempty"`
	P99Ns      int64 `json:"p99_ns,omitempty"`
	HiPriP99Ns int64 `json:"hi_pri_p99_ns,omitempty"`
	// AllocsPerOp pins the recording-free launch path's allocation
	// budget (figure "launchpath"), quantized to the nearest 32 so the
	// committed snapshot is stable while regressions of the
	// container/heap-boxing kind stay visible.
	AllocsPerOp int `json:"allocs_per_op,omitempty"`
}

// benchCell projects c's measured row onto a BENCH.json cell of figure.
func (c cell) benchCell(figure string, row CollRunRow) BenchCell {
	b := BenchCell{
		Figure: figure, Nodes: c.nodes, GPUsPerNode: c.gpus,
		Elems: c.count, Algo: fmt.Sprint(c.algo), Fabric: "unshared", Oversub: c.oversub,
		E2ENs: int64(row.E2E), SHMBytes: row.SHMBytes, RDMABytes: row.RDMABytes,
	}
	if c.kind != prim.AllToAllv {
		b.Kind = c.kind.String()
	}
	if c.oversub > 0 {
		b.Fabric = fmt.Sprintf("oversub%g", c.oversub)
	}
	return b
}

// matrix measures figure's cells of the benchmark matrix: every kind ×
// size × algorithm on each of benchShapes, priced on the unshared
// fabric and on a 2:1-oversubscribed shared one.
func matrix(figure string, kinds []prim.Kind, sizes []int, algos []prim.Algorithm) ([]BenchCell, error) {
	var cells []BenchCell
	for _, s := range benchShapes {
		for _, kind := range kinds {
			for _, size := range sizes {
				for _, algo := range algos {
					for _, oversub := range []float64{0, 2} {
						c := at(s, kind, size)
						c.algo, c.oversub = algo, oversub
						row, _, err := measure(c)
						if err != nil {
							return nil, err
						}
						cells = append(cells, c.benchCell(figure, row))
					}
				}
			}
		}
	}
	return cells, nil
}

// FullBenchMatrix is the BENCH.json matrix: uniform all-to-all-v at
// three per-pair sizes, the fault-injection scenarios with their
// chaos-overhead column, the three reduction kinds under ring,
// hierarchical and auto, the tracing-overhead cells pinning the flight
// recorder's zero observer effect, and the multi-job contention column
// (per-policy cluster cells plus the launch-path allocation cell).
// Deterministic by construction — regenerating the file must be a no-op
// diff.
func FullBenchMatrix() ([]BenchCell, error) {
	var cells []BenchCell
	for _, part := range []func() ([]BenchCell, error){
		func() ([]BenchCell, error) {
			return matrix("a2abench", []prim.Kind{prim.AllToAllv}, []int{24, 96, 384},
				[]prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical})
		},
		func() ([]BenchCell, error) { return ChaosBenchCells(6) },
		func() ([]BenchCell, error) {
			return matrix("collbench", []prim.Kind{prim.AllReduce, prim.AllGather, prim.ReduceScatter},
				[]int{64, 512, 4096}, []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical, prim.AlgoAuto})
		},
		TraceOverheadCells,
		ClusterBenchCells,
	} {
		p, err := part()
		if err != nil {
			return nil, err
		}
		cells = append(cells, p...)
	}
	return cells, nil
}

// figCollBench writes the matrix as indented JSON to -out, or to w
// when -out is empty.
func figCollBench(w io.Writer, o Opts) error {
	cells, err := FullBenchMatrix()
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if o.Out == "" {
		_, err = w.Write(buf)
		return err
	}
	return os.WriteFile(o.Out, buf, 0o644)
}
