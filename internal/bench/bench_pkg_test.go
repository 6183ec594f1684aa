package bench

import (
	"testing"

	"dfccl/internal/core"
	"dfccl/internal/fabric"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/train"
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
	cluster := topo.Server3090(8)
	small, _, err := measureBoth(CollConfig{Cluster: cluster, Kind: prim.AllGather, Bytes: 4 << 10, Iters: 3, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	nccl, dfccl, err := measureBoth(CollConfig{Cluster: cluster, Kind: prim.AllGather, Bytes: 4 << 20, Iters: 3, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Core shape of Fig. 9: at 4MB, DFCCL's core execution time is
	// shorter than NCCL's (kernel startup amortized by the resident
	// daemon kernel).
	if dfccl.CoreExec >= nccl.CoreExec {
		t.Errorf("4MB: dfccl core %v not below nccl core %v", dfccl.CoreExec, nccl.CoreExec)
	}
	if small.E2E <= 0 || nccl.E2E <= 0 || dfccl.E2E <= 0 {
		t.Fatal("bad latencies")
	}
}

func TestSec61Programs(t *testing.T) {
	nccl, err := sec61NCCLSingleQueue(sec61Workload(8, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !nccl.Deadlocked {
		t.Fatal("NCCL single-queue disorder did not deadlock")
	}
	dfccl, err := sec61Run(core.DefaultConfig(), 2, 7, false)
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
	p2, err := sec61Run(core.DefaultConfig(), 1, 7, true)
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

// e2e1KB measures one 1 KB all-reduce on eight 3090s under conf.
func e2e1KB(t *testing.T, conf core.Config, iters int) sim.Duration {
	t.Helper()
	res, err := MeasureDFCCL(CollConfig{Cluster: topo.Server3090(8), Kind: prim.AllReduce, Bytes: 1 << 10, Iters: iters, Warmup: 1}, conf)
	if err != nil {
		t.Fatal(err)
	}
	return res.E2E
}

func TestFig7Consistency(t *testing.T) {
	vanilla := core.NewCQ(core.CQVanillaRing, 8).WriteCost()
	ring := core.NewCQ(core.CQOptimizedRing, 8).WriteCost()
	optimized := core.NewCQ(core.CQOptimized, 8).WriteCost()
	if optimized >= ring || ring >= vanilla {
		t.Fatalf("CQ cost ordering wrong: %v %v %v", optimized, ring, vanilla)
	}
	sum := core.ReadSQETime + core.ParseSQETime + core.LoadContextTime + optimized
	if measured := e2e1KB(t, core.DefaultConfig(), 3); measured < sum {
		t.Fatalf("measured e2e %v below component sum %v", measured, sum)
	}
}

func TestFig7CQSweepOrdering(t *testing.T) {
	e2e := map[core.CQVariant]sim.Duration{}
	for _, v := range []core.CQVariant{core.CQVanillaRing, core.CQOptimized} {
		conf := core.DefaultConfig()
		conf.CQVariant = v
		e2e[v] = e2e1KB(t, conf, 5)
	}
	if e2e[core.CQVanillaRing] < e2e[core.CQOptimized] {
		t.Fatalf("vanilla CQ e2e %v faster than optimized %v", e2e[core.CQVanillaRing], e2e[core.CQOptimized])
	}
}

// TestMoEZeROScenarios smoke-tests the MoE and ZeRO scenarios at
// minimal scale: numerics verify, DFCCL never deadlocks, the
// single-stream baseline always does, and DFCCL's communicator count
// stays below the baseline's churn growth.
func TestMoEZeROScenarios(t *testing.T) {
	cfg := moeBenchConfig(2)
	cfg.DynamicGroups = true
	comms := map[string]int{}
	var ragged *train.Result
	for _, name := range []string{"dfccl", "nccl-staticsort", "nccl-singlestream"} {
		res, b, err := runMoE(name, cfg)
		if err != nil {
			t.Fatalf("MoE %s: %v", name, err)
		}
		comms[name] = b.CommsCreated()
		if ragged == nil {
			ragged = res
		}
		if res.A2ABytes != ragged.A2ABytes {
			t.Fatalf("%s moved %d alltoall bytes, want %d (payload is backend-independent)", name, res.A2ABytes, ragged.A2ABytes)
		}
	}
	cfg.PaddedAllToAll = true
	padded, _, err := runMoE("dfccl", cfg)
	if err != nil {
		t.Fatalf("MoE padded: %v", err)
	}
	if padded.OutputHash != ragged.OutputHash {
		t.Fatal("AllToAllv combined outputs diverged from the padded reference")
	}
	if ragged.A2ABytes >= padded.A2ABytes || ragged.A2ABytes == 0 {
		t.Fatalf("dispatch bytes: ragged=%d padded=%d; want 0 < ragged < padded under the skewed router",
			ragged.A2ABytes, padded.A2ABytes)
	}
	if d, b := comms["dfccl"], comms["nccl-singlestream"]; d == 0 || b == 0 || d > b {
		t.Fatalf("comms created: dfccl=%d baseline=%d; want pooled dfccl ≤ churned baseline", d, b)
	}
	for k := 0; k < 2; k++ {
		cfg := moeBenchConfig(k + 1)
		cfg.Disorder = true
		if _, _, err := runMoE("dfccl", cfg); err != nil {
			t.Fatalf("DFCCL deadlocked on disordered MoE trial %d: %v", k, err)
		}
		if _, _, err := runMoE("nccl-singlestream", cfg); err == nil {
			t.Fatalf("single-stream NCCL survived disordered MoE trial %d", k)
		}
	}

	zcfg := train.ZeROConfig{Model: zeroBenchModel(), Ranks: zeroBenchRanks, BatchPerGPU: 4, Iterations: 2}
	for zcfg.Stage = 1; zcfg.Stage <= 3; zcfg.Stage++ {
		for _, name := range []string{"dfccl", "nccl-staticsort"} {
			if _, _, err := runZeRO(name, zcfg); err != nil {
				t.Fatalf("ZeRO stage %d %s: %v", zcfg.Stage, name, err)
			}
		}
	}
	zcfg.Stage, zcfg.Churn = 3, true
	if _, _, err := runZeRO("dfccl", zcfg); err != nil {
		t.Fatalf("ZeRO stage 3 churn: %v", err)
	}
	if _, _, err := runZeRO("dfccl", zeroDisordered(0)); err != nil {
		t.Fatalf("DFCCL deadlocked on the disordered ZeRO trial: %v", err)
	}
	if _, _, err := runZeRO("nccl-singlestream", zeroDisordered(0)); err == nil {
		t.Fatal("single-stream NCCL survived the disordered ZeRO trial; scenario exercises nothing")
	}
}

// TestA2ASweepInvariants runs one cell of the all-to-all algorithm
// sweep (2 nodes, hot-row skew) and pins the claims the a2a row
// enforces across the full sweep: bit-identical outputs and strictly
// fewer hierarchical RDMA bytes.
func TestA2ASweepInvariants(t *testing.T) {
	c := cell{shape: shape{2, 2}, kind: prim.AllToAllv, counts: a2aCounts(4, "hot-row", 1), algo: prim.AlgoRing}
	ringRow, ringOuts, err := measure(c)
	if err != nil {
		t.Fatal(err)
	}
	c.algo = prim.AlgoHierarchical
	hierRow, hierOuts, err := measure(c)
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

// TestA2AGate runs the algorithm sweep behind `trainbench -fig a2a`
// through a2aGate, and checks the gate rejects a row set that breaks
// one of its claims.
func TestA2AGate(t *testing.T) {
	rows, err := a2aSweep(benchShapes, []float64{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a2aGate(rows); err != nil {
		t.Fatalf("a2aGate on the algorithm sweep: %v", err)
	}
	for i, r := range rows {
		if r.algo != prim.AlgoHierarchical || r.nodes < 2 {
			continue
		}
		bad := append([]a2aRow(nil), rows...)
		bad[i].run.RDMABytes = 1 << 40
		if a2aGate(bad) == nil {
			t.Fatal("a2aGate accepted hierarchical RDMA bytes above the ring's")
		}
		bad[i] = r
		bad[i].identical = false
		if a2aGate(bad) == nil {
			t.Fatal("a2aGate accepted diverged outputs")
		}
		break
	}
}

// TestContentionGate checks a2aGate rejects a congestion-sweep row set
// that breaks one of its claims. The measured sweep passing it is the
// a2a row of TestExperiments (3 s, so it runs once); the rows here are
// made up to have the sweep's shape: e2e grows with F, faster for the
// ring, which also moves more RDMA bytes.
func TestContentionGate(t *testing.T) {
	var rows []a2aRow
	for _, f := range []float64{1, 2, 4} {
		for _, skew := range a2aSkews {
			var ring CollRunRow
			for _, algo := range []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical} {
				unshared, rdma := 400*sim.Microsecond, 90
				if algo == prim.AlgoHierarchical {
					unshared, rdma = 300*sim.Microsecond, 72
				}
				run := CollRunRow{
					E2E: unshared * sim.Duration(f) * sim.Duration(f), RDMABytes: rdma,
					Tiers: []fabric.TierUtil{{Tier: fabric.TierSpine, PeakUtil: 1, Saturated: 1}},
				}
				if algo == prim.AlgoRing {
					ring = run
				}
				rows = append(rows, a2aRow{
					cell: cell{shape: shape{4, 4}, kind: prim.AllToAllv, algo: algo, oversub: f},
					skew: skew, run: run, ring: ring, unshared: unshared, identical: true,
				})
			}
		}
	}
	if err := a2aGate(rows); err != nil {
		t.Fatalf("a2aGate on well-formed rows: %v", err)
	}
	for i, r := range rows {
		if r.algo != prim.AlgoHierarchical || r.oversub != 4 {
			continue
		}
		for _, m := range []struct {
			claim  string
			mutate func(*a2aRow)
		}{
			{"a contended run no slower than its isolated-sum prediction", func(r *a2aRow) { r.run.E2E = r.unshared }},
			{"a run that never saturated the spine", func(r *a2aRow) { r.run.Tiers = nil }},
			{"contended hierarchical RDMA bytes as high as the ring's", func(r *a2aRow) { r.run.RDMABytes = r.ring.RDMABytes }},
			{"an advantage that shrank as F grew", func(r *a2aRow) { r.run.E2E = r.ring.E2E }},
		} {
			bad := append([]a2aRow(nil), rows...)
			m.mutate(&bad[i])
			if a2aGate(bad) == nil {
				t.Errorf("a2aGate accepted %s", m.claim)
			}
		}
		break
	}
}

// TestGatesBite feeds the moe/zero deadlock-tally gate and the Sec. 6.1
// check the outcomes their claims rule out, and the ones they allow.
func TestGatesBite(t *testing.T) {
	for _, c := range []struct {
		name                string
		trials, dfccl, base int
		all, pass           bool
	}{
		{"moe: dfccl deadlocked on 1 of 5", 5, 1, 5, true, false},
		{"moe: baseline deadlocked on only 4 of 5", 5, 0, 4, true, false},
		{"zero: dfccl deadlocked on 1 of 5", 5, 1, 1, false, false},
		{"zero: baseline survived all 5", 5, 0, 0, false, false},
		{"moe: as claimed", 5, 0, 5, true, true},
		{"zero: as claimed", 5, 0, 1, false, true},
		{"no trials", 0, 0, 0, true, true},
	} {
		if err := deadlockGate(c.trials, c.dfccl, c.base, c.all); (err == nil) != c.pass {
			t.Errorf("%s: deadlockGate = %v, want pass=%v", c.name, err, c.pass)
		}
	}

	p1 := Sec61Result{Program: "1", Lib: "dfccl", Completed: 128, Preemptions: 3}
	p2 := Sec61Result{Program: "2", Lib: "dfccl", Completed: 128, VoluntaryQuits: 5}
	nccl := Sec61Result{Program: "1", Lib: "nccl", Deadlocked: true}
	for _, c := range []struct {
		name string
		res  Sec61Result
		pass bool
	}{
		{"program 1 as claimed", p1, true},
		{"program 2 as claimed", p2, true},
		{"nccl deadlocked as claimed", nccl, true},
		{"dfccl deadlocked in program 1", Sec61Result{Program: "1", Lib: "dfccl", Deadlocked: true}, false},
		{"nccl completed", Sec61Result{Program: "1", Lib: "nccl", Completed: 128}, false},
		{"127 of 128 runs completed", Sec61Result{Program: "1", Lib: "dfccl", Completed: 127, Preemptions: 3}, false},
		{"0 preemptions", Sec61Result{Program: "1", Lib: "dfccl", Completed: 128}, false},
		{"0 voluntary quits", Sec61Result{Program: "2", Lib: "dfccl", Completed: 128, Preemptions: 3}, false},
	} {
		if err := c.res.check(2); (err == nil) != c.pass {
			t.Errorf("%s: check = %v, want pass=%v", c.name, err, c.pass)
		}
	}
}
