package bench

import (
	"fmt"
	"io"
	"os"

	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/tune"
)

// tuneShapes are the node shapes the sweep (and the committed table)
// covers; the picker nearest-matches shapes in between.
var tuneShapes = []shape{{1, 4}, {2, 2}, {2, 4}, {4, 4}}

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
	for _, s := range tuneShapes {
		for _, kind := range tuneKinds {
			keys := make([]int, 0, len(tuneProbeSizes))
			wins := make([]bool, 0, len(tuneProbeSizes))
			for _, size := range tuneProbeSizes {
				c := at(s, kind, size)
				var e2e [2]sim.Duration
				for i, algo := range []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical} {
					c.algo = algo
					row, _, err := measure(c)
					if err != nil {
						return nil, err
					}
					e2e[i] = row.E2E
				}
				keys = append(keys, c.count)
				wins = append(wins, e2e[1] <= e2e[0])
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
				Kind: kind.String(), Nodes: s.nodes, GPUsPerNode: s.gpus,
				Fabric: "unshared", CrossoverElems: cross,
			})
		}
	}
	return tbl, nil
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
	for _, s := range benchShapes {
		for _, kind := range []prim.Kind{prim.AllReduce, prim.AllGather, prim.ReduceScatter} {
			for _, size := range []int{16, 1024, 4096} {
				c := at(s, kind, size)
				var runs [3]CollRunRow
				var outs [3][][]byte
				for i, algo := range []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical, prim.AlgoAuto} {
					c.algo = algo
					var err error
					if runs[i], outs[i], err = measure(c); err != nil {
						return err
					}
				}
				ring, hier, auto := runs[0], runs[1], runs[2]
				identical := bytesEqual(outs[0], outs[2])
				pass := identical && float64(auto.E2E) <= float64(min(ring.E2E, hier.E2E))*autoGateTolerance
				fmt.Fprintf(w, "  %-14v %d×%d GPUs %6d elems  ring=%-12v hier=%-12v auto=%-12v ->%-13v identical=%v pass=%v\n",
					kind, s.nodes, s.gpus, c.count, ring.E2E, hier.E2E, auto.E2E, auto.Resolved, identical, pass)
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
