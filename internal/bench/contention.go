package bench

import (
	"fmt"
	"io"

	"dfccl/internal/fabric"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// A2AContentionRow is one (oversubscription, skew, algorithm) cell of
// the congestion sweep: the same real-data AllToAllv priced once on a
// shared fabric with per-tier oversubscription and once under the
// legacy isolated-path model, so the row quantifies exactly what
// contention costs and where it lands (the per-tier summary).
type A2AContentionRow struct {
	// Nodes × GPUsPerNode is the cluster shape.
	Nodes, GPUsPerNode int
	// Skew names the count-matrix shape ("uniform" or "hot-row").
	Skew string
	// Oversub is the leaf and spine oversubscription factor of the
	// shared fabric (1 = full bisection).
	Oversub float64
	// Algo is the algorithm this row measured.
	Algo prim.Algorithm
	// E2E is the exchange latency on the shared (contended) fabric.
	E2E sim.Duration
	// UnsharedE2E is the same exchange under isolated-path pricing —
	// the isolated-sum prediction a congestion-blind model would give.
	UnsharedE2E sim.Duration
	// RDMABytes is the inter-node wire traffic (identical either way:
	// the fabric changes timing, never routing or data).
	RDMABytes int
	// BitIdentical reports that the shared-fabric recv buffers matched
	// both the unshared run and the ring reference byte for byte.
	BitIdentical bool
	// Tiers is the per-tier link-utilization summary of the shared run.
	Tiers []fabric.TierUtil
}

// Slowdown is the contention penalty: shared E2E over the isolated-sum
// prediction.
func (r A2AContentionRow) Slowdown() float64 {
	return float64(r.E2E) / float64(r.UnsharedE2E)
}

// String renders the row as one sweep-table line.
func (r A2AContentionRow) String() string {
	return fmt.Sprintf("%d×%d GPUs  %-8s F=%-3v %-13v e2e=%-12v unshared=%-12v ×%.2f  rdma=%-8s identical=%v",
		r.Nodes, r.GPUsPerNode, r.Skew, r.Oversub, r.Algo, r.E2E, r.UnsharedE2E,
		r.Slowdown(), HumanBytes(r.RDMABytes), r.BitIdentical)
}

// HierAdvantage is the hierarchical algorithm's edge over the ring
// (ring e2e − hierarchical e2e) in one (skew, oversubscription) cell of
// the congestion sweep.
type HierAdvantage struct {
	Skew      string
	Oversub   float64
	Advantage sim.Duration
}

// String renders the advantage as one sweep-table line.
func (a HierAdvantage) String() string {
	return fmt.Sprintf("%-8s F=%-3g hierarchical advantage over ring: %+.0fus", a.Skew, a.Oversub, float64(a.Advantage)/1000)
}

// HierAdvantages derives the sweep's advantage column, skew-major with
// the oversubscription factors in sweep order.
func HierAdvantages(rows []A2AContentionRow) []HierAdvantage {
	var out []HierAdvantage
	for _, skew := range []string{"uniform", "hot-row"} {
		for _, r := range rows {
			if r.Skew != skew || r.Algo != prim.AlgoHierarchical {
				continue
			}
			for _, ring := range rows {
				if ring.Skew == skew && ring.Oversub == r.Oversub && ring.Algo == prim.AlgoRing {
					out = append(out, HierAdvantage{Skew: skew, Oversub: r.Oversub, Advantage: ring.E2E - r.E2E})
				}
			}
		}
	}
	return out
}

// ContentionGate enforces the congestion sweep's claims on its rows:
// every run's outputs are bit-identical to the unshared and ring
// references (contention reprices, it never reroutes); with
// oversubscription above 1 the hierarchical rows — whose leader ring is
// exactly the overlapping-flows scenario the fabric must price — are
// strictly slower than their isolated-sum prediction and saturate the
// spine; and the hierarchical advantage over the ring grows
// monotonically with the factor (it crosses the tapered core with fewer
// bytes, so every increase of F widens its margin).
func ContentionGate(rows []A2AContentionRow) error {
	for _, r := range rows {
		if !r.BitIdentical {
			return fmt.Errorf("F=%g %s %v: outputs diverged from the unshared/ring reference", r.Oversub, r.Skew, r.Algo)
		}
		if r.Algo != prim.AlgoHierarchical || r.Oversub <= 1 {
			continue
		}
		if r.E2E <= r.UnsharedE2E {
			return fmt.Errorf("F=%g %s: spine contention invisible — shared e2e %v not above isolated-sum %v",
				r.Oversub, r.Skew, r.E2E, r.UnsharedE2E)
		}
		spineSat := false
		for _, t := range r.Tiers {
			if t.Tier == fabric.TierSpine && t.Saturated > 0 {
				spineSat = true
			}
		}
		if !spineSat {
			return fmt.Errorf("F=%g %s: spine never saturated under overlapping inter-leader flows", r.Oversub, r.Skew)
		}
	}
	advs := HierAdvantages(rows)
	for i := 1; i < len(advs); i++ {
		prev, a := advs[i-1], advs[i]
		if a.Skew == prev.Skew && a.Advantage <= prev.Advantage {
			return fmt.Errorf("%s: hierarchical advantage not monotone in oversubscription: F=%g gives %+.0fus after %+.0fus",
				a.Skew, a.Oversub, float64(a.Advantage)/1000, float64(prev.Advantage)/1000)
		}
	}
	return nil
}

// figA2A runs the algorithm sweep and the congestion sweep, each
// through its gate.
func figA2A(w io.Writer, _ Opts) error {
	rows, err := AllToAllAlgoSweep()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "all-to-all algorithm sweep (real-data AllToAllv, ring vs hierarchical; bytes are total wire traffic incl. forwarding hops)")
	for _, r := range rows {
		fmt.Fprintln(w, "  "+r.String())
	}
	if err := A2AGate(rows); err != nil {
		return err
	}
	fmt.Fprintln(w, "hierarchical outputs bit-identical to the ring on every shape; RDMA bytes strictly lower on multi-node shapes")

	fmt.Fprintln(w)
	fmt.Fprintln(w, "congestion sweep (shared fabric, leaf+spine oversubscription F; 4×4 GPUs, bandwidth-dominated blocks)")
	crows, err := contentionSweep(4, 4, []float64{1, 2, 4})
	if err != nil {
		return err
	}
	for _, r := range crows {
		fmt.Fprintln(w, "  "+r.String())
		line := "      tiers:"
		for _, t := range r.Tiers {
			line += fmt.Sprintf("  %v peak=%.2f sat=%v", t.Tier, t.PeakUtil, t.Saturated)
		}
		fmt.Fprintln(w, line)
	}
	for _, a := range HierAdvantages(crows) {
		fmt.Fprintln(w, "  "+a.String())
	}
	if err := ContentionGate(crows); err != nil {
		return err
	}
	fmt.Fprintln(w, "contention gates passed: spine visible at F>1, inter-leader flows above isolated-sum, advantage monotone, outputs bit-identical")
	return nil
}

// contentionScale multiplies the algorithm sweep's count matrices into
// the bandwidth-dominated regime (uniform blocks of 48 KB), where the
// spine is the bottleneck for both algorithms and the hierarchical
// advantage is a capacity statement rather than a latency one. Below
// this regime the flat ring hides its RDMA hops behind the store-and-
// forward critical path and contention only narrows the relative gap.
const contentionScale = 256

// contentionSweep is the congestion sweep: for each oversubscription
// factor and skew regime the same real-data AllToAllv runs under the
// flat ring and the hierarchical algorithm on a shared fabric
// (fabric.OversubConfig), with an isolated-path twin run giving the
// congestion-blind prediction. ContentionGate enforces its claims.
func contentionSweep(nodes, gpus int, oversubs []float64) ([]A2AContentionRow, error) {
	var rows []A2AContentionRow
	for _, f := range oversubs {
		for _, skew := range []string{"uniform", "hot-row"} {
			counts := a2aCounts(nodes*gpus, skew)
			for i := range counts {
				for j := range counts[i] {
					counts[i][j] *= contentionScale
				}
			}
			var ringOuts [][]byte
			for _, algo := range []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical} {
				cluster := topo.NewCluster(nodes, gpus, topo.RTX3090, topo.DefaultLinks)
				net := fabric.Shared(cluster, fabric.OversubConfig(f))
				row, outs, err := runA2AOn(cluster, onFabric(net), counts, algo)
				if err != nil {
					return nil, err
				}
				unshRow, unshOuts, err := runA2A(
					topo.NewCluster(nodes, gpus, topo.RTX3090, topo.DefaultLinks), counts, algo)
				if err != nil {
					return nil, err
				}
				if algo == prim.AlgoRing {
					ringOuts = outs
				}
				rows = append(rows, A2AContentionRow{
					Nodes: nodes, GPUsPerNode: gpus, Skew: skew, Oversub: f, Algo: algo,
					E2E: row.E2E, UnsharedE2E: unshRow.E2E, RDMABytes: row.RDMABytes,
					BitIdentical: bytesEqual(outs, unshOuts) && bytesEqual(outs, ringOuts),
					Tiers:        row.Tiers,
				})
			}
		}
	}
	return rows, nil
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
	// Kind is the collective's NCCL-style name for the full-collective
	// matrix rows ("all-reduce", "all-gather", "reduce-scatter"); empty
	// on the legacy a2abench and chaos cells, which are all-to-all-v.
	Kind string `json:"kind,omitempty"`
	// Elems is the uniform per-pair element count (float64) for
	// all-to-all cells, and the per-rank Count for the full-collective
	// matrix cells.
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

// A2ABenchMatrix generates the all-to-all half of the benchmark
// matrix (FullBenchMatrix appends the full-collective cells):
// uniform all-to-all at three per-pair sizes across the node shapes,
// each priced under both algorithms on the unshared fabric and on a
// 2:1-oversubscribed shared fabric, followed by the fault-injection
// scenarios with their chaos-overhead column (ChaosBenchCells).
// Deterministic by construction — regenerating the file must be a
// no-op diff.
func A2ABenchMatrix() ([]BenchCell, error) {
	const benchOversub = 2.0
	var cells []BenchCell
	for _, shape := range []struct{ nodes, gpus int }{{1, 4}, {2, 4}, {4, 4}} {
		for _, elems := range []int{24, 96, 384} {
			counts := uniformCounts(shape.nodes*shape.gpus, elems)
			for _, algo := range []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical} {
				for _, shared := range []bool{false, true} {
					cluster := topo.NewCluster(shape.nodes, shape.gpus, topo.RTX3090, topo.DefaultLinks)
					var net *fabric.Network
					cell := BenchCell{
						Figure: "a2abench", Nodes: shape.nodes, GPUsPerNode: shape.gpus,
						Elems: elems, Algo: fmt.Sprint(algo), Fabric: "unshared",
					}
					if shared {
						net = fabric.Shared(cluster, fabric.OversubConfig(benchOversub))
						cell.Fabric = fmt.Sprintf("oversub%g", benchOversub)
						cell.Oversub = benchOversub
					}
					row, _, err := runA2AOn(cluster, onFabric(net), counts, algo)
					if err != nil {
						return nil, err
					}
					cell.E2ENs = int64(row.E2E)
					cell.SHMBytes, cell.RDMABytes = row.SHMBytes, row.RDMABytes
					cells = append(cells, cell)
				}
			}
		}
	}
	chaosCells, err := ChaosBenchCells(6)
	if err != nil {
		return nil, err
	}
	return append(cells, chaosCells...), nil
}
