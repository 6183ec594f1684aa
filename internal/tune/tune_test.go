package tune_test

// Tuning-table tests: the committed artifact round-trips byte-for-byte
// through Parse/Marshal (so `trainbench -fig tune` regeneration is a
// no-op diff), the picker can never resolve AlgoAuto to an algorithm
// Validate would refuse and is monotone in payload size, and a chaos
// kill/revive run proves the auto-picked hierarchical all-reduce
// commits bit-identically through membership churn.

import (
	"bytes"
	"os"
	"testing"

	"dfccl/internal/chaos"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/tune"
)

// TestGoldenRoundTrip pins the committed artifact: the embedded default
// equals the on-disk file, and Parse→Marshal reproduces it byte for
// byte, so a sweep re-run that changes nothing produces no diff.
func TestGoldenRoundTrip(t *testing.T) {
	disk, err := os.ReadFile("default_table.json")
	if err != nil {
		t.Fatalf("read committed artifact: %v", err)
	}
	tbl, err := tune.Parse(disk)
	if err != nil {
		t.Fatalf("parse committed artifact: %v", err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("committed table has no rows")
	}
	out, err := tbl.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(out, disk) {
		t.Errorf("Parse→Marshal is not byte-stable against the committed artifact:\n got %d bytes\nwant %d bytes", len(out), len(disk))
	}
	def, err := tune.Default().Marshal()
	if err != nil {
		t.Fatalf("marshal embedded default: %v", err)
	}
	if !bytes.Equal(def, disk) {
		t.Error("embedded default differs from the on-disk artifact")
	}
}

func TestParseRejectsMalformedRows(t *testing.T) {
	for _, bad := range []string{
		`{"rows":[{"kind":"all-reduce","nodes":0,"gpus_per_node":4,"fabric":"unshared","crossover_elems":0}]}`,
		`{"rows":[{"kind":"all-reduce","nodes":2,"gpus_per_node":-1,"fabric":"unshared","crossover_elems":0}]}`,
		`{"rows":[{"kind":"all-reduce","nodes":2,"gpus_per_node":4,"fabric":"unshared","crossover_elems":-2}]}`,
		`{"rows":`,
	} {
		if _, err := tune.Parse([]byte(bad)); err == nil {
			t.Errorf("Parse accepted malformed table %s", bad)
		}
	}
}

// TestPickNeverUnsupported is the safety property: whatever the table
// says, kinds without a hierarchical builder resolve to the ring, so
// the resolved spec always passes prim.Spec.Validate.
func TestPickNeverUnsupported(t *testing.T) {
	// A hostile table claiming hierarchical always wins everywhere.
	tbl := &tune.Table{}
	for _, k := range []prim.Kind{prim.Reduce, prim.Broadcast, prim.AllReduce} {
		tbl.Rows = append(tbl.Rows, tune.Row{Kind: k.String(), Nodes: 2, GPUsPerNode: 4, Fabric: "unshared", CrossoverElems: 0})
	}
	for _, k := range []prim.Kind{prim.Reduce, prim.Broadcast} {
		for _, elems := range []int{0, 1, 1 << 20} {
			if got := tbl.Pick(k, elems, 2, 4); got != prim.AlgoRing {
				t.Errorf("Pick(%v, %d) = %v, want ring (no hierarchical builder)", k, elems, got)
			}
		}
	}
	// Sanity: the same table does resolve a supported kind.
	if got := tbl.Pick(prim.AllReduce, 64, 2, 4); got != prim.AlgoHierarchical {
		t.Errorf("Pick(all-reduce) = %v, want hierarchical", got)
	}
}

// TestPickMonotonicInElems sweeps every (kind, shape) cell of the
// committed table: once the hierarchical schedule is picked at some
// payload, every larger payload must pick it too.
func TestPickMonotonicInElems(t *testing.T) {
	tbl := tune.Default()
	kinds := []prim.Kind{prim.AllReduce, prim.AllGather, prim.ReduceScatter, prim.AllToAll, prim.AllToAllv}
	for _, k := range kinds {
		for _, shape := range [][2]int{{1, 4}, {2, 2}, {2, 4}, {3, 3}, {4, 4}, {8, 4}} {
			sawHier := false
			for elems := 0; elems <= 1<<14; elems += 7 {
				got := tbl.Pick(k, elems, shape[0], shape[1])
				if got == prim.AlgoHierarchical {
					sawHier = true
				} else if sawHier {
					t.Fatalf("Pick(%v, shape %v) regressed to %v at elems=%d after picking hierarchical below",
						k, shape, got, elems)
				}
			}
		}
	}
}

// TestPickCrossoverSemantics pins the three crossover encodings on a
// synthetic single-row table.
func TestPickCrossoverSemantics(t *testing.T) {
	row := func(cross int) *tune.Table {
		return &tune.Table{Rows: []tune.Row{{Kind: "all-reduce", Nodes: 2, GPUsPerNode: 4, Fabric: "unshared", CrossoverElems: cross}}}
	}
	if got := row(100).Pick(prim.AllReduce, 99, 2, 4); got != prim.AlgoRing {
		t.Errorf("below crossover: got %v, want ring", got)
	}
	if got := row(100).Pick(prim.AllReduce, 100, 2, 4); got != prim.AlgoHierarchical {
		t.Errorf("at crossover: got %v, want hierarchical", got)
	}
	if got := row(-1).Pick(prim.AllReduce, 1<<20, 2, 4); got != prim.AlgoRing {
		t.Errorf("crossover -1: got %v, want ring at every size", got)
	}
	if got := row(0).Pick(prim.AllReduce, 0, 2, 4); got != prim.AlgoHierarchical {
		t.Errorf("crossover 0: got %v, want hierarchical at every size", got)
	}
	// No rows for the kind → ring.
	if got := row(0).Pick(prim.AllGather, 1<<20, 2, 4); got != prim.AlgoRing {
		t.Errorf("kind with no rows: got %v, want ring", got)
	}
	if got := (&tune.Table{}).Pick(prim.AllReduce, 1<<20, 2, 4); got != prim.AlgoRing {
		t.Errorf("empty table: got %v, want ring", got)
	}
}

// TestPickNearestShape verifies shape matching: node-count distance
// dominates GPUs-per-node distance.
func TestPickNearestShape(t *testing.T) {
	tbl := &tune.Table{Rows: []tune.Row{
		{Kind: "all-reduce", Nodes: 1, GPUsPerNode: 4, Fabric: "unshared", CrossoverElems: -1},
		{Kind: "all-reduce", Nodes: 4, GPUsPerNode: 4, Fabric: "unshared", CrossoverElems: 0},
	}}
	if got := tbl.Pick(prim.AllReduce, 64, 3, 2); got != prim.AlgoHierarchical {
		t.Errorf("shape (3,2): got %v, want hierarchical (nearest row is 4 nodes)", got)
	}
	if got := tbl.Pick(prim.AllReduce, 64, 1, 8); got != prim.AlgoRing {
		t.Errorf("shape (1,8): got %v, want ring (nearest row is 1 node)", got)
	}
}

func TestElemsFor(t *testing.T) {
	if got := tune.ElemsFor(prim.Spec{Kind: prim.AllReduce, Count: 96}); got != 96 {
		t.Errorf("uniform kind: ElemsFor = %d, want 96", got)
	}
	// All-to-all-v keys on the ceiling of the mean per-pair count.
	spec := prim.Spec{Kind: prim.AllToAllv, Counts: [][]int{{0, 5}, {10, 2}}}
	if got := tune.ElemsFor(spec); got != 5 { // ceil(17/4)
		t.Errorf("a2av mean: ElemsFor = %d, want 5", got)
	}
	if got := tune.ElemsFor(prim.Spec{Kind: prim.AllToAllv}); got != 0 {
		t.Errorf("empty a2av: ElemsFor = %d, want 0", got)
	}
}

// TestPickForSubsetShape verifies PickForExplained tunes for the shape
// the rank set actually spans, not the whole cluster: on a two-node
// machine the committed table sends a cross-node all-reduce
// hierarchical and a single-node one (same cluster, node-local ranks)
// to the ring.
func TestPickForSubsetShape(t *testing.T) {
	tbl := tune.Default()
	cluster := topo.MultiNode3090(2)
	cross := prim.Spec{Kind: prim.AllReduce, Count: 64, Ranks: []int{0, 1, 8, 9}}
	if got, _ := tbl.PickForExplained(cluster, cross); got != prim.AlgoHierarchical {
		t.Errorf("cross-node all-reduce: PickForExplained = %v, want hierarchical", got)
	}
	local := prim.Spec{Kind: prim.AllReduce, Count: 64, Ranks: []int{0, 1, 2, 3}}
	if got, _ := tbl.PickForExplained(cluster, local); got != prim.AlgoRing {
		t.Errorf("node-local all-reduce: PickForExplained = %v, want ring", got)
	}
	// Reduce-scatter measured ring-favoured everywhere.
	rs := prim.Spec{Kind: prim.ReduceScatter, Count: 64, Ranks: []int{0, 1, 8, 9}}
	if got, _ := tbl.PickForExplained(cluster, rs); got != prim.AlgoRing {
		t.Errorf("reduce-scatter: PickForExplained = %v, want ring", got)
	}
}

// TestAutoSurvivesKillRevive is the chaos sweep for the auto picker: a
// data-parallel gradient all-reduce on two nodes — a cell the committed
// table resolves to the hierarchical schedule — runs through a mid-run
// kill and a later revive, and must commit every iteration
// bit-identically to the serial reference, re-resolving AlgoAuto over
// each re-formed membership.
func TestAutoSurvivesKillRevive(t *testing.T) {
	// Precondition: this cell really does exercise the hierarchical path.
	if got := tune.Default().Pick(prim.AllReduce, 8, 2, 2); got != prim.AlgoHierarchical {
		t.Fatalf("table no longer resolves the chaos cell to hierarchical (got %v); move the scenario to a cell that does", got)
	}
	const iters = 6
	kill := 500 * sim.Microsecond
	rep, err := chaos.Run(chaos.Config{
		Workload: "dp", Cluster: topo.MultiNode3090(2), Ranks: []int{0, 1, 8, 9},
		Iterations: iters, Algo: prim.AlgoAuto,
		Schedule: chaos.Schedule{
			{At: kill, Kind: chaos.Kill, Rank: 9},
			{At: kill + 400*sim.Microsecond, Kind: chaos.Revive, Rank: 9},
		},
	})
	if err != nil {
		t.Fatalf("chaos.Run: %v", err)
	}
	if rep.Hang {
		t.Fatal("auto-picked run hung")
	}
	if rep.Committed != iters || !rep.BitIdentical {
		t.Fatalf("committed %d/%d, bit-identical=%v (err=%q)", rep.Committed, iters, rep.BitIdentical, rep.Err)
	}
	if rep.KillsApplied != 1 || rep.RevivesApplied != 1 {
		t.Fatalf("kills=%d revives=%d, want 1 each", rep.KillsApplied, rep.RevivesApplied)
	}
	if rep.AbortedAttempts < 1 || rep.TypedErrors < 1 {
		t.Fatalf("kill never surfaced as a typed abort: %+v", rep)
	}
	if !rep.MembershipChanged() {
		t.Fatalf("trajectory never changed membership: %v", rep.Trajectory)
	}
}
