package bench

import (
	"testing"

	"dfccl/internal/core"
	"dfccl/internal/fabric"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

func TestMeasureBothLibsSmallAllReduce(t *testing.T) {
	cfg := CollConfig{Cluster: topo.Server3090(4), Kind: prim.AllReduce, Bytes: 4 << 10, Iters: 3, Warmup: 1}
	n, err := MeasureNCCL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := MeasureDFCCL(cfg, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n.E2E <= 0 || d.E2E <= 0 {
		t.Fatalf("non-positive latencies: nccl=%v dfccl=%v", n.E2E, d.E2E)
	}
	if n.AlgoBW <= 0 || d.AlgoBW <= 0 {
		t.Fatal("non-positive bandwidth")
	}
	// Both libraries must be within an order of magnitude at 4KB.
	if d.E2E > 10*n.E2E || n.E2E > 10*d.E2E {
		t.Fatalf("latencies diverge: nccl=%v dfccl=%v", n.E2E, d.E2E)
	}
}

func TestFig9Shape(t *testing.T) {
	small, large, err := Fig9(3)
	if err != nil {
		t.Fatal(err)
	}
	// Core shape of Fig. 9: at 4MB, DFCCL's core execution time is
	// shorter than NCCL's (kernel startup amortized by the resident
	// daemon kernel).
	if large.DFCCL.CoreExec >= large.NCCL.CoreExec {
		t.Errorf("4MB: dfccl core %v not below nccl core %v", large.DFCCL.CoreExec, large.NCCL.CoreExec)
	}
	if small.DFCCL.E2E <= 0 || small.NCCL.E2E <= 0 {
		t.Fatal("bad small-buffer latencies")
	}
}

func TestSec61Programs(t *testing.T) {
	nccl, err := Sec61Program1("nccl", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !nccl.Deadlocked {
		t.Fatal("NCCL single-queue disorder did not deadlock")
	}
	dfccl, err := Sec61Program1("dfccl", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if dfccl.Deadlocked {
		t.Fatal("DFCCL deadlocked in program 1")
	}
	if dfccl.Completed != 8*8*2 {
		t.Fatalf("completed = %d, want 128", dfccl.Completed)
	}
	if dfccl.Preemptions == 0 {
		t.Fatal("expected preemptions in program 1")
	}
	p2, err := Sec61Program2(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Deadlocked {
		t.Fatal("DFCCL deadlocked in program 2")
	}
	if p2.VoluntaryQuits == 0 {
		t.Fatal("expected voluntary quits with device synchronization")
	}
}

func TestFig7Consistency(t *testing.T) {
	r, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if r.CQEOptimized >= r.CQEOptimizedRing || r.CQEOptimizedRing >= r.CQEVanillaRing {
		t.Fatalf("CQ cost ordering wrong: %v %v %v", r.CQEOptimized, r.CQEOptimizedRing, r.CQEVanillaRing)
	}
	if r.MeasuredE2E < r.ReadSQE+r.Preparing+r.WriteCQE {
		t.Fatalf("measured e2e %v below component sum", r.MeasuredE2E)
	}
}

func TestFig7CQSweepOrdering(t *testing.T) {
	m, err := Fig7CQSweep()
	if err != nil {
		t.Fatal(err)
	}
	if m[2] < m[0] { // vanilla (2) should not be faster than optimized (0)
		t.Fatalf("vanilla CQ e2e %v faster than optimized %v", m[2], m[0])
	}
}

func TestSizeSweepAndHumanBytes(t *testing.T) {
	s := SizeSweep(512, 4096)
	want := []int{512, 1024, 2048, 4096}
	if len(s) != len(want) {
		t.Fatalf("sweep = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", s, want)
		}
	}
	if HumanBytes(512) != "512B" || HumanBytes(4096) != "4K" || HumanBytes(4<<20) != "4M" {
		t.Fatal("HumanBytes formatting wrong")
	}
}

// TestMoEZeROScenarios smoke-tests the MoE and ZeRO harness entries at
// minimal scale: numerics verify, DFCCL never deadlocks, the
// single-stream baseline always does, and DFCCL's communicator count
// stays below the baseline's churn growth.
func TestMoEZeROScenarios(t *testing.T) {
	moeRows, dispatch, moeTally, err := MoE(2, 2)
	if err != nil {
		t.Fatalf("MoE: %v", err)
	}
	if len(moeRows) != 3 {
		t.Fatalf("MoE rows = %d, want 3", len(moeRows))
	}
	if !dispatch.BitIdentical {
		t.Fatal("AllToAllv combined outputs diverged from the padded reference")
	}
	if dispatch.RaggedBytes >= dispatch.PaddedBytes || dispatch.RaggedBytes == 0 {
		t.Fatalf("dispatch bytes: ragged=%d padded=%d; want 0 < ragged < padded under the skewed router",
			dispatch.RaggedBytes, dispatch.PaddedBytes)
	}
	for _, r := range moeRows {
		if r.A2ABytes != dispatch.RaggedBytes {
			t.Fatalf("%s moved %d alltoall bytes, want %d (payload is backend-independent)", r.Backend, r.A2ABytes, dispatch.RaggedBytes)
		}
	}
	if moeTally.DFCCLDeadlocks != 0 {
		t.Fatalf("DFCCL deadlocked %d/%d disordered MoE trials", moeTally.DFCCLDeadlocks, moeTally.Trials)
	}
	if moeTally.BaselineDeadlocks != moeTally.Trials {
		t.Fatalf("single-stream NCCL deadlocked only %d/%d disordered MoE trials", moeTally.BaselineDeadlocks, moeTally.Trials)
	}
	var dfcclComms, baseComms int
	for _, r := range moeRows {
		switch r.Backend {
		case "dfccl":
			dfcclComms = r.CommsCreated
		case "nccl-singlestream":
			baseComms = r.CommsCreated
		}
	}
	if dfcclComms == 0 || baseComms == 0 || dfcclComms > baseComms {
		t.Fatalf("comms created: dfccl=%d baseline=%d; want pooled dfccl ≤ churned baseline", dfcclComms, baseComms)
	}

	zeroRows, zeroTally, err := ZeRO(2, 1)
	if err != nil {
		t.Fatalf("ZeRO: %v", err)
	}
	if len(zeroRows) != 7 { // 3 stages × 2 backends + churn row
		t.Fatalf("ZeRO rows = %d, want 7", len(zeroRows))
	}
	if zeroTally.DFCCLDeadlocks != 0 {
		t.Fatalf("DFCCL deadlocked %d/%d disordered ZeRO trials", zeroTally.DFCCLDeadlocks, zeroTally.Trials)
	}
	if zeroTally.BaselineDeadlocks == 0 {
		t.Fatal("single-stream NCCL survived every disordered ZeRO trial; scenario exercises nothing")
	}
}

// TestA2ASweepInvariants runs one cell of the all-to-all algorithm
// sweep (2 nodes, hot-row skew) and pins the claims cmd/trainbench
// enforces across the full sweep: bit-identical outputs and strictly
// fewer hierarchical RDMA bytes.
func TestA2ASweepInvariants(t *testing.T) {
	cluster := topo.NewCluster(2, 2, topo.RTX3090, topo.DefaultLinks)
	counts := a2aCounts(4, "hot-row")
	ringRow, ringOuts, err := runA2A(cluster, counts, prim.AlgoRing)
	if err != nil {
		t.Fatal(err)
	}
	hierRow, hierOuts, err := runA2A(cluster, counts, prim.AlgoHierarchical)
	if err != nil {
		t.Fatal(err)
	}
	if !bytesEqual(ringOuts, hierOuts) {
		t.Fatal("hierarchical outputs diverged from the ring")
	}
	if hierRow.RDMABytes == 0 || hierRow.RDMABytes >= ringRow.RDMABytes {
		t.Fatalf("RDMA bytes: hierarchical=%d ring=%d; want 0 < hierarchical < ring",
			hierRow.RDMABytes, ringRow.RDMABytes)
	}
	if hierRow.E2E <= 0 || ringRow.E2E <= 0 {
		t.Fatal("missing end-to-end timing")
	}
}

// TestA2AGate runs the first sweep behind `trainbench -fig a2a` through
// the gate that row enforces, and checks the gate rejects a row set
// that breaks one of its claims.
func TestA2AGate(t *testing.T) {
	rows, err := AllToAllAlgoSweep()
	if err != nil {
		t.Fatal(err)
	}
	if err := A2AGate(rows); err != nil {
		t.Fatalf("A2AGate on the sweep: %v", err)
	}
	for i, r := range rows {
		if r.Algo != prim.AlgoHierarchical || r.Nodes < 2 {
			continue
		}
		bad := append([]A2ARow(nil), rows...)
		bad[i].RDMABytes = 1 << 40
		if A2AGate(bad) == nil {
			t.Fatal("A2AGate accepted hierarchical RDMA bytes above the ring's")
		}
		bad[i] = r
		bad[i].BitIdentical = false
		if A2AGate(bad) == nil {
			t.Fatal("A2AGate accepted diverged outputs")
		}
		break
	}
}

// TestContentionGate checks ContentionGate rejects a row set that
// breaks one of its claims. The measured sweep passing it is the a2a
// row of TestExperiments (3 s, so it runs once); the rows here are made
// up to have the sweep's shape: e2e grows with F, faster for the ring.
func TestContentionGate(t *testing.T) {
	var crows []A2AContentionRow
	for _, f := range []float64{1, 2, 4} {
		for _, skew := range []string{"uniform", "hot-row"} {
			for _, algo := range []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical} {
				unshared := 400 * sim.Microsecond
				if algo == prim.AlgoHierarchical {
					unshared = 300 * sim.Microsecond
				}
				crows = append(crows, A2AContentionRow{
					Nodes: 4, GPUsPerNode: 4, Skew: skew, Oversub: f, Algo: algo,
					E2E: unshared * sim.Duration(f) * sim.Duration(f), UnsharedE2E: unshared, BitIdentical: true,
					Tiers: []fabric.TierUtil{{Tier: fabric.TierSpine, PeakUtil: 1, Saturated: 1}},
				})
			}
		}
	}
	if err := ContentionGate(crows); err != nil {
		t.Fatalf("ContentionGate on well-formed rows: %v", err)
	}
	if got := len(HierAdvantages(crows)); got != 6 {
		t.Fatalf("advantage column has %d cells, want 2 skews × 3 factors", got)
	}
	for i, r := range crows {
		if r.Algo != prim.AlgoHierarchical || r.Oversub != 4 {
			continue
		}
		bad := append([]A2AContentionRow(nil), crows...)
		bad[i].E2E = bad[i].UnsharedE2E // spine invisible, and advantage no longer monotone
		if ContentionGate(bad) == nil {
			t.Fatal("ContentionGate accepted a contended run no slower than its isolated-sum prediction")
		}
		bad[i] = r
		bad[i].Tiers = nil
		if ContentionGate(bad) == nil {
			t.Fatal("ContentionGate accepted a run that never saturated the spine")
		}
		break
	}
}
