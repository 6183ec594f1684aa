package train

import (
	"testing"

	"dfccl/internal/core"
	"dfccl/internal/orch"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// zeroTestModel is a 3-layer model whose sizes exercise shard padding
// (none divisible by 4) while keeping data movement small.
func zeroTestModel() Model {
	mk := func(name string, elems int) Layer {
		return Layer{Name: name, GradElems: elems, FwdPerSample: 30 * sim.Microsecond, BwdPerSample: 60 * sim.Microsecond}
	}
	return Model{Name: "zero-test", Layers: []Layer{mk("in", 10), mk("mid", 17), mk("out", 33)}}
}

func moeTestConfig(iters int) MoEConfig {
	return MoEConfig{
		Ranks: 4, TokensPerRank: 6, ElemsPerToken: 4, TopK: 2,
		Iterations: iters, DenseGradElems: 64,
	}
}

func mkBackend(t *testing.T, name string, n int) (*sim.Engine, *topo.Cluster, orch.Backend) {
	t.Helper()
	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	cluster := topo.Server3090(n)
	switch name {
	case "dfccl":
		return e, cluster, orch.NewDFCCL(e, cluster, core.DefaultConfig())
	case "static":
		return e, cluster, orch.NewStaticSort(e, cluster)
	case "singlestream":
		return e, cluster, orch.NewNCCLSingleStream(e, cluster)
	default:
		t.Fatalf("unknown backend %q", name)
		return nil, nil, nil
	}
}

// TestRunMoENumeric runs MoE expert parallelism with real token data
// on DFCCL and on multi-stream NCCL; RunMoE verifies every combined
// token, the dense gradient sum, and the subgroup sums exactly.
func TestRunMoENumeric(t *testing.T) {
	for _, backend := range []string{"dfccl", "static"} {
		cfg := moeTestConfig(3)
		e, cluster, b := mkBackend(t, backend, cfg.Ranks)
		res, err := RunMoE(e, cluster, b, cfg)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Throughput <= 0 {
			t.Fatalf("%s: no throughput", backend)
		}
		if res.IterTimes.Len() != 3 {
			t.Fatalf("%s: iters = %d, want 3", backend, res.IterTimes.Len())
		}
	}
}

// TestRunMoEDynamicGroups exercises the expert-group churn path on
// DFCCL: dispatch/combine and the rotating overloaded-expert pair are
// opened and closed every iteration, with disordered launches.
func TestRunMoEDynamicGroups(t *testing.T) {
	cfg := moeTestConfig(5)
	cfg.DynamicGroups = true
	cfg.Disorder = true
	e, cluster, b := mkBackend(t, "dfccl", cfg.Ranks)
	if _, err := RunMoE(e, cluster, b, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMoEPoolChurnFlat is the pool-recycling regression: communicator
// construction must not scale with MoE open/close cycles — a longer
// run creates exactly as many communicators as a shorter one.
func TestMoEPoolChurnFlat(t *testing.T) {
	created := func(iters int) int {
		cfg := moeTestConfig(iters)
		cfg.DynamicGroups = true
		e, cluster, b := mkBackend(t, "dfccl", cfg.Ranks)
		if _, err := RunMoE(e, cluster, b, cfg); err != nil {
			t.Fatal(err)
		}
		return b.CommsCreated()
	}
	short, long := created(4), created(12)
	if short != long {
		t.Fatalf("Created() grew with churn cycles: %d after 4 iters vs %d after 12", short, long)
	}
	// Persistent dense + count-gather (2) + dispatch/combine live
	// concurrently (2) + one communicator per distinct hot-expert pair
	// (4 ranks → 4).
	if short > 8 {
		t.Fatalf("Created() = %d, want ≤ 8", short)
	}
}

// TestRunMoEDeadlockOnlyWithoutDFCCL is the MoE acceptance scenario:
// the same disordered dispatch/dense schedule deadlocks single-stream
// NCCL and completes (with verified numerics) under DFCCL.
func TestRunMoEDeadlockOnlyWithoutDFCCL(t *testing.T) {
	cfg := moeTestConfig(2)
	cfg.Disorder = true

	e, cluster, b := mkBackend(t, "singlestream", cfg.Ranks)
	if _, err := RunMoE(e, cluster, b, cfg); err == nil {
		t.Fatal("single-stream NCCL completed the disordered MoE schedule, want deadlock")
	}

	e, cluster, b = mkBackend(t, "dfccl", cfg.Ranks)
	if _, err := RunMoE(e, cluster, b, cfg); err != nil {
		t.Fatalf("dfccl on the same schedule: %v", err)
	}
}

// TestRunMoESingleStreamOrderedCompletes sanity-checks the baseline:
// without cross-rank disorder the single-stream NCCL backend completes
// the MoE schedule and produces the same verified numerics.
func TestRunMoESingleStreamOrderedCompletes(t *testing.T) {
	cfg := moeTestConfig(2)
	e, cluster, b := mkBackend(t, "singlestream", cfg.Ranks)
	if _, err := RunMoE(e, cluster, b, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunZeROStagesNumeric runs all three ZeRO stages on DFCCL and
// multi-stream NCCL; RunZeRO compares the sharded parameters and
// momentum (optimizer state) shards bit-for-bit against an unsharded
// reference.
func TestRunZeROStagesNumeric(t *testing.T) {
	for _, backend := range []string{"dfccl", "static"} {
		for stage := 1; stage <= 3; stage++ {
			cfg := ZeROConfig{
				Model: zeroTestModel(), Stage: stage, Ranks: 4,
				BatchPerGPU: 2, Iterations: 3,
			}
			e, cluster, b := mkBackend(t, backend, cfg.Ranks)
			res, err := RunZeRO(e, cluster, b, cfg)
			if err != nil {
				t.Fatalf("%s stage %d: %v", backend, stage, err)
			}
			if res.Throughput <= 0 {
				t.Fatalf("%s stage %d: no throughput", backend, stage)
			}
		}
	}
}

// TestRunZeROChurnPoolFlat: stage-3 churn reopens every per-layer
// collective each iteration; DFCCL's pool must hold communicator
// construction flat regardless of run length.
func TestRunZeROChurnPoolFlat(t *testing.T) {
	created := func(iters int) int {
		cfg := ZeROConfig{
			Model: zeroTestModel(), Stage: 3, Ranks: 4,
			BatchPerGPU: 1, Iterations: iters, Churn: true,
		}
		e, cluster, b := mkBackend(t, "dfccl", cfg.Ranks)
		if _, err := RunZeRO(e, cluster, b, cfg); err != nil {
			t.Fatal(err)
		}
		return b.CommsCreated()
	}
	short, long := created(2), created(6)
	if short != long {
		t.Fatalf("Created() grew with churn cycles: %d after 2 iters vs %d after 6", short, long)
	}
}

// TestRunZeRODisorderDeadlockOnlyWithoutDFCCL is the ZeRO acceptance
// scenario: disordered per-layer ReduceScatter/AllGather launches
// deadlock single-stream NCCL and complete exactly under DFCCL.
func TestRunZeRODisorderDeadlockOnlyWithoutDFCCL(t *testing.T) {
	rotate := func(rank, iter int, order []int) {
		n := len(order)
		rot := append(append([]int(nil), order[rank%n:]...), order[:rank%n]...)
		copy(order, rot)
	}
	cfg := ZeROConfig{
		Model: zeroTestModel(), Stage: 2, Ranks: 4,
		BatchPerGPU: 1, Iterations: 2, Disorder: rotate,
	}

	e, cluster, b := mkBackend(t, "singlestream", cfg.Ranks)
	if _, err := RunZeRO(e, cluster, b, cfg); err == nil {
		t.Fatal("single-stream NCCL completed the disordered ZeRO schedule, want deadlock")
	}

	e, cluster, b = mkBackend(t, "dfccl", cfg.Ranks)
	if _, err := RunZeRO(e, cluster, b, cfg); err != nil {
		t.Fatalf("dfccl on the same schedule: %v", err)
	}
}

// TestRunMoERaggedMatchesPadded is the dispatch-substitution check:
// the AllToAllv path (exact routed counts) and the padded AllToAll
// reference produce bit-identical combined token outputs while the
// ragged path moves strictly fewer dispatch bytes under the skewed
// router.
func TestRunMoERaggedMatchesPadded(t *testing.T) {
	run := func(padded bool) *Result {
		cfg := moeTestConfig(4)
		cfg.PaddedAllToAll = padded
		e, cluster, b := mkBackend(t, "dfccl", cfg.Ranks)
		res, err := RunMoE(e, cluster, b, cfg)
		if err != nil {
			t.Fatalf("padded=%v: %v", padded, err)
		}
		return res
	}
	ragged, padded := run(false), run(true)
	if ragged.OutputHash != padded.OutputHash {
		t.Fatalf("combined outputs diverged: ragged hash %x, padded hash %x", ragged.OutputHash, padded.OutputHash)
	}
	if ragged.OutputHash == 0 {
		t.Fatal("output hash not recorded")
	}
	if ragged.A2ABytes == 0 || ragged.A2ABytes >= padded.A2ABytes {
		t.Fatalf("dispatch bytes: ragged=%d padded=%d; want 0 < ragged < padded", ragged.A2ABytes, padded.A2ABytes)
	}
}
