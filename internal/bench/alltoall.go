package bench

import (
	"bytes"
	"fmt"

	"dfccl/internal/core"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// A2ARow is one (cluster shape, skew, algorithm) cell of the Fig. 8-
// style all-to-all algorithm sweep: the same count matrix exchanged
// with real data under the flat ring and the hierarchical algorithm,
// with end-to-end latency and the per-transport wire-traffic split.
type A2ARow struct {
	// Nodes × GPUsPerNode is the cluster shape.
	Nodes, GPUsPerNode int
	// Skew names the count-matrix shape ("uniform" or "hot-row").
	Skew string
	// Algo is the algorithm this row measured.
	Algo prim.Algorithm
	// E2E is invocation-to-completion latency of one exchange.
	E2E sim.Duration
	// SHMBytes / RDMABytes split the total wire traffic (all ranks,
	// store-and-forward hops included) by transport.
	SHMBytes, RDMABytes int
	// BitIdentical reports whether this row's recv buffers matched the
	// flat-ring reference byte for byte (trivially true for the ring
	// rows themselves).
	BitIdentical bool
}

// String renders the row as one sweep-table line.
func (r A2ARow) String() string {
	return fmt.Sprintf("%d×%d GPUs  %-8s %-13v e2e=%-12v shm=%-8s rdma=%-8s identical=%v",
		r.Nodes, r.GPUsPerNode, r.Skew, r.Algo, r.E2E,
		HumanBytes(r.SHMBytes), HumanBytes(r.RDMABytes), r.BitIdentical)
}

// a2aCounts builds the sweep's deterministic count matrix: "uniform"
// gives every pair the same block, "hot-row" concentrates traffic on
// one source and one destination (an MoE hot expert), leaving zero-
// count pairs behind — the regime where capacity padding and topology-
// blind routing both hurt.
func a2aCounts(n int, skew string) [][]int {
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			switch skew {
			case "uniform":
				m[i][j] = 96
			default: // hot-row
				switch {
				case i == 0:
					m[i][j] = 240
				case j == 1:
					m[i][j] = 180
				default:
					m[i][j] = (i*7 + j*3) % 5 * 16 // sparse background, zeros included
				}
			}
		}
	}
	return m
}

// a2aSendVal is the deterministic fill of element i of block (src→dst).
func a2aSendVal(src, dst, i int) float64 {
	return float64(100000*src + 1000*dst + i + 1)
}

// uniformCounts is the n×n count matrix with every pair exchanging v
// elements.
func uniformCounts(n, v int) [][]int {
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			m[i][j] = v
		}
	}
	return m
}

// runA2A is runA2AOn under the default configuration (unshared fabric).
func runA2A(cluster *topo.Cluster, counts [][]int, algo prim.Algorithm) (CollRunRow, [][]byte, error) {
	return runA2AOn(cluster, core.DefaultConfig(), counts, algo)
}

// runA2AOn is runColl for a real-data AllToAllv exchange of the given
// count matrix, every block filled with a2aSendVal.
func runA2AOn(cluster *topo.Cluster, cfg core.Config, counts [][]int, algo prim.Algorithm) (CollRunRow, [][]byte, error) {
	spec := prim.Spec{Kind: prim.AllToAllv, Type: mem.Float64, Ranks: seqRanks(len(counts)), Counts: counts, Algo: algo}
	return runColl(cluster, cfg, spec, func(rank int, send *mem.Buffer) {
		off := 0
		for dst, count := range counts[rank] {
			for i := 0; i < count; i++ {
				send.SetFloat64(off, a2aSendVal(rank, dst, i))
				off++
			}
		}
	})
}

// AllToAllAlgoSweep is the Fig. 8-style algorithm sweep: for each
// cluster shape (1, 2, and 4 nodes) and skew regime it runs the same
// real-data AllToAllv under the flat ring and the hierarchical
// algorithm, verifying the outputs are bit-identical and reporting the
// per-transport wire bytes. A2AGate enforces the sweep's claims.
func AllToAllAlgoSweep() ([]A2ARow, error) {
	var rows []A2ARow
	for _, shape := range []struct{ nodes, gpus int }{{1, 4}, {2, 4}, {4, 4}} {
		for _, skew := range []string{"uniform", "hot-row"} {
			cluster := topo.NewCluster(shape.nodes, shape.gpus, topo.RTX3090, topo.DefaultLinks)
			counts := a2aCounts(shape.nodes*shape.gpus, skew)
			var ringOuts [][]byte
			for _, algo := range []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical} {
				run, outs, err := runA2A(cluster, counts, algo)
				if err != nil {
					return nil, err
				}
				if algo == prim.AlgoRing {
					ringOuts = outs
				}
				rows = append(rows, A2ARow{
					Nodes: shape.nodes, GPUsPerNode: shape.gpus, Skew: skew, Algo: algo,
					E2E: run.E2E, SHMBytes: run.SHMBytes, RDMABytes: run.RDMABytes,
					BitIdentical: bytesEqual(ringOuts, outs),
				})
			}
		}
	}
	return rows, nil
}

// A2AGate enforces the algorithm sweep's claims on its rows: every
// hierarchical run's outputs are bit-identical to the ring's, on
// multi-node shapes the hierarchical algorithm's RDMA bytes are
// strictly below the ring's, and on one node they are zero.
func A2AGate(rows []A2ARow) error {
	for _, r := range rows {
		if !r.BitIdentical {
			return fmt.Errorf("%d-node %s: hierarchical outputs diverged from the ring", r.Nodes, r.Skew)
		}
	}
	for _, r := range rows {
		if r.Algo != prim.AlgoHierarchical {
			continue
		}
		for _, ring := range rows {
			if ring.Algo != prim.AlgoRing || ring.Nodes != r.Nodes || ring.Skew != r.Skew {
				continue
			}
			switch {
			case r.Nodes == 1 && r.RDMABytes != 0:
				return fmt.Errorf("1-node %s: hierarchical moved %d RDMA bytes, want 0", r.Skew, r.RDMABytes)
			case r.Nodes > 1 && r.RDMABytes >= ring.RDMABytes:
				return fmt.Errorf("%d-node %s: hierarchical RDMA bytes %d not below ring's %d",
					r.Nodes, r.Skew, r.RDMABytes, ring.RDMABytes)
			}
		}
	}
	return nil
}

// bytesEqual compares two per-rank output sets byte for byte.
func bytesEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
