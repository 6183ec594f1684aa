package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dfccl/internal/core"
	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/tune"
)

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

// benchCollSpec assembles the spec for one benchmark run of a
// uniform-count collective kind.
func benchCollSpec(kind prim.Kind, count int, ranks []int, algo prim.Algorithm) prim.Spec {
	s := prim.Spec{Kind: kind, Count: count, Type: mem.Float64, Ranks: ranks, Algo: algo}
	switch kind {
	case prim.AllReduce, prim.ReduceScatter, prim.Reduce:
		s.Op = mem.Sum
	}
	return s
}

// runColl runs one real-data collective over the v2 handle API on a
// deployment configured by cfg (its fabric, and a flight recorder when
// the tracing-overhead cells install one): every rank opens spec, fills
// its send buffer with fill, and launches once in lock-step. It returns
// the measured row plus every rank's recv bytes for cross-algorithm
// comparison.
func runColl(cluster *topo.Cluster, cfg core.Config, spec prim.Spec, fill func(rank int, send *mem.Buffer)) (CollRunRow, [][]byte, error) {
	d := deploy(cluster, cfg)
	n := cluster.Size()
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
		send := mem.NewBuffer(mem.DeviceSpace, spec.Type, sendCount)
		recv := mem.NewBuffer(mem.DeviceSpace, spec.Type, recvCount)
		fill(rank, send)
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

// runKind is runColl for a uniform-count collective kind with the
// benchCollVal fill.
func runKind(cluster *topo.Cluster, cfg core.Config, kind prim.Kind, count int, algo prim.Algorithm) (CollRunRow, [][]byte, error) {
	return runColl(cluster, cfg, benchCollSpec(kind, count, seqRanks(cluster.Size()), algo), fillCollVal)
}

// onFabric is the default configuration priced on net (nil = unshared).
func onFabric(net *fabric.Network) core.Config {
	cfg := core.DefaultConfig()
	cfg.Network = net
	return cfg
}

// tuneShapes are the node shapes the sweep (and the committed table)
// covers; the picker nearest-matches shapes in between.
var tuneShapes = []struct{ nodes, gpus int }{{1, 4}, {2, 2}, {2, 4}, {4, 4}}

// tuneProbeSizes is the per-rank payload ladder (elements) the sweep
// probes for each crossover.
var tuneProbeSizes = []int{16, 128, 1024, 4096}

// tuneKinds are the collectives with a hierarchical schedule to tune.
var tuneKinds = []prim.Kind{
	prim.AllReduce, prim.AllGather, prim.ReduceScatter, prim.AllToAll, prim.AllToAllv,
}

// TuneSweep is the auto-tuning sweep driver: for every (kind, node
// shape) cell it measures the flat ring against the hierarchical
// schedule across the probe-size ladder on the unshared fabric and
// derives the crossover — the smallest probed payload from which the
// hierarchical schedule never measured slower. The result is the
// committed tuning table (internal/tune/default_table.json, written by
// `trainbench -fig tune`); the sweep is deterministic, so regeneration
// is a no-op diff.
func TuneSweep() (*tune.Table, error) {
	tbl := &tune.Table{}
	for _, shape := range tuneShapes {
		for _, kind := range tuneKinds {
			n := shape.nodes * shape.gpus
			keys := make([]int, 0, len(tuneProbeSizes))
			wins := make([]bool, 0, len(tuneProbeSizes))
			for _, size := range tuneProbeSizes {
				count := size
				if kind == prim.ReduceScatter {
					count = ((size + n - 1) / n) * n // recv shares must divide evenly
				}
				ringE2E, hierE2E, err := probeCell(shape.nodes, shape.gpus, kind, count)
				if err != nil {
					return nil, err
				}
				key := count
				if kind == prim.AllToAllv {
					key = size // uniform matrix: mean per-pair count == size
				}
				keys = append(keys, key)
				wins = append(wins, hierE2E <= ringE2E)
			}
			cross := -1
			for i := len(wins) - 1; i >= 0; i-- {
				if !wins[i] {
					break
				}
				cross = keys[i]
			}
			if cross == keys[0] && wins[0] {
				cross = 0 // hierarchical won at every probe
			}
			tbl.Rows = append(tbl.Rows, tune.Row{
				Kind: kind.String(), Nodes: shape.nodes, GPUsPerNode: shape.gpus,
				Fabric: "unshared", CrossoverElems: cross,
			})
		}
	}
	return tbl, nil
}

// probeCell measures one (shape, kind, count) cell under both concrete
// algorithms on the unshared fabric.
func probeCell(nodes, gpus int, kind prim.Kind, count int) (ringE2E, hierE2E sim.Duration, err error) {
	run := func(algo prim.Algorithm) (sim.Duration, error) {
		cluster := topo.NewCluster(nodes, gpus, topo.RTX3090, topo.DefaultLinks)
		var row CollRunRow
		var err error
		if kind == prim.AllToAllv {
			row, _, err = runA2A(cluster, uniformCounts(nodes*gpus, count), algo)
		} else {
			row, _, err = runKind(cluster, core.DefaultConfig(), kind, count, algo)
		}
		return row.E2E, err
	}
	if ringE2E, err = run(prim.AlgoRing); err != nil {
		return 0, 0, err
	}
	hierE2E, err = run(prim.AlgoHierarchical)
	return ringE2E, hierE2E, err
}

// autoGateTolerance is the slack the gate allows between the auto pick
// and the per-cell winner: the sweep and the gate measure the same
// deterministic cells, so auto should match the winner exactly
// wherever the crossover representation can express it; the tolerance
// only absorbs cells where a non-monotone win pattern forced the
// conservative (ring) side of the crossover.
const autoGateTolerance = 1.02

// figAR is the auto-tuning gate: for every (reduction kind, node shape,
// payload) cell it measures ring, hierarchical, and auto, and requires
// the auto pick to land on the per-cell winner within tolerance with
// outputs bit-identical to the ring's. Every cell is printed, so a
// failing run shows which cells missed.
func figAR(w io.Writer, _ Opts) error {
	fmt.Fprintln(w, "auto-tuning gate (ring vs hierarchical vs auto; auto resolved from the committed tuning table)")
	cells, failed := 0, 0
	for _, shape := range []struct{ nodes, gpus int }{{1, 4}, {2, 4}, {4, 4}} {
		for _, kind := range []prim.Kind{prim.AllReduce, prim.AllGather, prim.ReduceScatter} {
			for _, size := range []int{16, 1024, 4096} {
				n := shape.nodes * shape.gpus
				count := size
				if kind == prim.ReduceScatter {
					count = ((size + n - 1) / n) * n
				}
				run := func(algo prim.Algorithm) (CollRunRow, [][]byte, error) {
					cluster := topo.NewCluster(shape.nodes, shape.gpus, topo.RTX3090, topo.DefaultLinks)
					return runKind(cluster, core.DefaultConfig(), kind, count, algo)
				}
				ring, ringOuts, err := run(prim.AlgoRing)
				if err != nil {
					return err
				}
				hier, _, err := run(prim.AlgoHierarchical)
				if err != nil {
					return err
				}
				auto, autoOuts, err := run(prim.AlgoAuto)
				if err != nil {
					return err
				}
				identical := bytesEqual(ringOuts, autoOuts)
				pass := identical && float64(auto.E2E) <= float64(min(ring.E2E, hier.E2E))*autoGateTolerance
				fmt.Fprintf(w, "  %-14v %d×%d GPUs %6d elems  ring=%-12v hier=%-12v auto=%-12v ->%-13v identical=%v pass=%v\n",
					kind, shape.nodes, shape.gpus, count, ring.E2E, hier.E2E, auto.E2E, auto.Resolved, identical, pass)
				cells++
				if !pass {
					failed++
				}
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("auto pick missed the per-cell winner (or outputs diverged) in %d of %d cells", failed, cells)
	}
	fmt.Fprintln(w, "auto gate passed: every auto pick matched the per-cell winner within tolerance, outputs bit-identical to the ring")
	return nil
}

// figTune writes the sweep's table to -out.
func figTune(w io.Writer, o Opts) error {
	tbl, err := TuneSweep()
	if err != nil {
		return err
	}
	buf, err := tbl.Marshal()
	if err != nil {
		return err
	}
	path := o.Out
	if path == "" {
		path = "internal/tune/default_table.json"
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "tuning table regenerated: %d rows -> %s\n", len(tbl.Rows), path)
	return nil
}

// CollBenchCells generates the full-collective half of the benchmark
// matrix: the three reduction kinds × payload sizes × ring /
// hierarchical / auto × node shapes, each priced on the unshared
// fabric and on a 2:1-oversubscribed shared fabric. Deterministic by
// construction, like A2ABenchMatrix.
func CollBenchCells() ([]BenchCell, error) {
	const benchOversub = 2.0
	kinds := []prim.Kind{prim.AllReduce, prim.AllGather, prim.ReduceScatter}
	var cells []BenchCell
	for _, shape := range []struct{ nodes, gpus int }{{1, 4}, {2, 4}, {4, 4}} {
		for _, kind := range kinds {
			for _, elems := range []int{64, 512, 4096} {
				n := shape.nodes * shape.gpus
				count := elems
				if kind == prim.ReduceScatter {
					count = ((elems + n - 1) / n) * n
				}
				for _, algo := range []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical, prim.AlgoAuto} {
					for _, shared := range []bool{false, true} {
						cluster := topo.NewCluster(shape.nodes, shape.gpus, topo.RTX3090, topo.DefaultLinks)
						var net *fabric.Network
						cell := BenchCell{
							Figure: "collbench", Kind: kind.String(),
							Nodes: shape.nodes, GPUsPerNode: shape.gpus,
							Elems: count, Algo: fmt.Sprint(algo), Fabric: "unshared",
						}
						if shared {
							net = fabric.Shared(cluster, fabric.OversubConfig(benchOversub))
							cell.Fabric = fmt.Sprintf("oversub%g", benchOversub)
							cell.Oversub = benchOversub
						}
						row, _, err := runKind(cluster, onFabric(net), kind, count, algo)
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
	}
	return cells, nil
}

// FullBenchMatrix is the BENCH.json matrix: the all-to-all and
// chaos cells of A2ABenchMatrix, the full-collective cells, the
// tracing-overhead cells pinning the flight recorder's zero observer
// effect, and the multi-job contention column (per-policy cluster
// cells plus the launch-path allocation cell).
func FullBenchMatrix() ([]BenchCell, error) {
	cells, err := A2ABenchMatrix()
	if err != nil {
		return nil, err
	}
	collCells, err := CollBenchCells()
	if err != nil {
		return nil, err
	}
	traceCells, err := TraceOverheadCells()
	if err != nil {
		return nil, err
	}
	clusterCells, err := ClusterBenchCells()
	if err != nil {
		return nil, err
	}
	cells = append(cells, collCells...)
	cells = append(cells, traceCells...)
	return append(cells, clusterCells...), nil
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
