package bench

import (
	"bytes"
	"fmt"
	"io"

	"dfccl/internal/fabric"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
)

// a2aSkews are the count-matrix shapes the all-to-all sweep exchanges.
var a2aSkews = []string{"uniform", "hot-row"}

// a2aCounts builds the sweep's deterministic count matrix, every entry
// multiplied by scale: "uniform" gives every pair the same block,
// "hot-row" concentrates traffic on one source and one destination (an
// MoE hot expert), leaving zero-count pairs behind — the regime where
// capacity padding and topology-blind routing both hurt.
func a2aCounts(n int, skew string, scale int) [][]int {
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			switch {
			case skew == "uniform":
				m[i][j] = 96
			case i == 0: // hot-row from here on
				m[i][j] = 240
			case j == 1:
				m[i][j] = 180
			default:
				m[i][j] = (i*7 + j*3) % 5 * 16 // sparse background, zeros included
			}
			m[i][j] *= scale
		}
	}
	return m
}

// contentionScale multiplies the algorithm sweep's count matrices into
// the bandwidth-dominated regime (uniform blocks of 48 KB), where the
// spine is the bottleneck for both algorithms and the hierarchical
// advantage is a capacity statement rather than a latency one. Below
// this regime the flat ring hides its RDMA hops behind the store-and-
// forward critical path and contention only narrows the relative gap.
const contentionScale = 256

// a2aRow is one (shape, fabric, skew, algorithm) cell of the all-to-all
// sweep, measured with real data.
type a2aRow struct {
	cell
	skew string
	run  CollRunRow
	// ring is the flat ring's run of the same exchange on the same fabric.
	ring CollRunRow
	// unshared is the exchange's latency under isolated-path pricing —
	// the prediction a congestion-blind model would give (run.E2E itself
	// on the unshared fabric).
	unshared sim.Duration
	// identical reports that the recv buffers matched the ring's and, on
	// a shared fabric, the unshared run's, byte for byte.
	identical bool
}

// a2aSweep runs the same real-data AllToAllv under the flat ring and
// the hierarchical algorithm for every shape, oversubscription factor
// (0 = unshared) and skew, the count matrices multiplied by scale. A
// shared-fabric cell also runs its unshared twin, whose latency is the
// isolated-sum prediction and whose outputs must match.
func a2aSweep(shapes []shape, oversubs []float64, scale int) ([]a2aRow, error) {
	var rows []a2aRow
	for _, s := range shapes {
		for _, f := range oversubs {
			for _, skew := range a2aSkews {
				var ring CollRunRow
				var ringOuts [][]byte
				for _, algo := range []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical} {
					c := cell{shape: s, kind: prim.AllToAllv, counts: a2aCounts(s.nodes*s.gpus, skew, scale), algo: algo, oversub: f}
					run, outs, err := measure(c)
					if err != nil {
						return nil, err
					}
					if algo == prim.AlgoRing {
						ring, ringOuts = run, outs
					}
					r := a2aRow{cell: c, skew: skew, run: run, ring: ring, unshared: run.E2E, identical: bytesEqual(outs, ringOuts)}
					if f > 0 {
						c.oversub = 0
						twin, twinOuts, err := measure(c)
						if err != nil {
							return nil, err
						}
						r.unshared, r.identical = twin.E2E, r.identical && bytesEqual(outs, twinOuts)
					}
					rows = append(rows, r)
				}
			}
		}
	}
	return rows, nil
}

// a2aGate enforces the all-to-all sweep's claims on its rows: every
// output is bit-identical to the ring's and, on a shared fabric, to the
// unshared run's (contention reprices, it never reroutes); the
// hierarchical algorithm moves no RDMA bytes on one node and strictly
// fewer than the ring on several; with oversubscription above 1 its
// rows — whose leader ring is exactly the overlapping-flows scenario
// the fabric must price — are strictly slower than their isolated-sum
// prediction and saturate the spine; and its advantage over the ring
// grows monotonically with the factor (it crosses the tapered core with
// fewer bytes, so every increase of F widens its margin).
func a2aGate(rows []a2aRow) error {
	prevAdv := map[string]sim.Duration{}
	for _, r := range rows {
		name := fmt.Sprintf("%d×%d F=%g %s %v", r.nodes, r.gpus, r.oversub, r.skew, r.algo)
		if !r.identical {
			return fmt.Errorf("%s: outputs diverged from the ring/unshared reference", name)
		}
		if r.algo != prim.AlgoHierarchical {
			continue
		}
		spineSat := false
		for _, t := range r.run.Tiers {
			spineSat = spineSat || t.Tier == fabric.TierSpine && t.Saturated > 0
		}
		switch {
		case r.nodes == 1 && r.run.RDMABytes != 0:
			return fmt.Errorf("%s: moved %d RDMA bytes on one node, want 0", name, r.run.RDMABytes)
		case r.nodes > 1 && r.run.RDMABytes >= r.ring.RDMABytes:
			return fmt.Errorf("%s: RDMA bytes %d not below the ring's %d", name, r.run.RDMABytes, r.ring.RDMABytes)
		case r.oversub > 1 && r.run.E2E <= r.unshared:
			return fmt.Errorf("%s: spine contention invisible — shared e2e %v not above isolated-sum %v", name, r.run.E2E, r.unshared)
		case r.oversub > 1 && !spineSat:
			return fmt.Errorf("%s: spine never saturated under overlapping inter-leader flows", name)
		}
		if r.oversub > 0 {
			key, adv := fmt.Sprint(r.shape, r.skew), r.ring.E2E-r.run.E2E
			if prev, ok := prevAdv[key]; ok && adv <= prev {
				return fmt.Errorf("%s: hierarchical advantage not monotone in oversubscription: %+.0fus after %+.0fus",
					name, float64(adv)/1000, float64(prev)/1000)
			}
			prevAdv[key] = adv
		}
	}
	return nil
}

// figA2A runs the algorithm sweep and the congestion sweep, each
// through a2aGate.
func figA2A(w io.Writer, _ Opts) error {
	rows, err := a2aSweep(benchShapes, []float64{0}, 1)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "all-to-all algorithm sweep (real-data AllToAllv, ring vs hierarchical; bytes are total wire traffic incl. forwarding hops)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %d×%d GPUs  %-8s %-13v e2e=%-12v shm=%-8s rdma=%-8s identical=%v\n", r.nodes, r.gpus, r.skew, r.algo,
			r.run.E2E, HumanBytes(r.run.SHMBytes), HumanBytes(r.run.RDMABytes), r.identical)
	}
	if err := a2aGate(rows); err != nil {
		return err
	}
	fmt.Fprintln(w, "hierarchical outputs bit-identical to the ring on every shape; RDMA bytes strictly lower on multi-node shapes")

	fmt.Fprintln(w)
	fmt.Fprintln(w, "congestion sweep (shared fabric, leaf+spine oversubscription F; 4×4 GPUs, bandwidth-dominated blocks)")
	if rows, err = a2aSweep([]shape{{4, 4}}, []float64{1, 2, 4}, contentionScale); err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %d×%d GPUs  %-8s F=%-3v %-13v e2e=%-12v unshared=%-12v ×%.2f  rdma=%-8s identical=%v\n      tiers:",
			r.nodes, r.gpus, r.skew, r.oversub, r.algo, r.run.E2E, r.unshared,
			float64(r.run.E2E)/float64(r.unshared), HumanBytes(r.run.RDMABytes), r.identical)
		for _, t := range r.run.Tiers {
			fmt.Fprintf(w, "  %v peak=%.2f sat=%v", t.Tier, t.PeakUtil, t.Saturated)
		}
		fmt.Fprintln(w)
	}
	for _, skew := range a2aSkews {
		for _, r := range rows {
			if r.skew == skew && r.algo == prim.AlgoHierarchical {
				fmt.Fprintf(w, "  %-8s F=%-3g hierarchical advantage over ring: %+.0fus\n", skew, r.oversub, float64(r.ring.E2E-r.run.E2E)/1000)
			}
		}
	}
	if err := a2aGate(rows); err != nil {
		return err
	}
	fmt.Fprintln(w, "contention gates passed: spine visible at F>1, inter-leader flows above isolated-sum, advantage monotone, outputs bit-identical")
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
