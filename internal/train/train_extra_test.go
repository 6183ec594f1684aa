package train

import (
	"testing"

	"dfccl/internal/core"
	"dfccl/internal/mem"
	"dfccl/internal/orch"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

func TestJitterIsDeterministic(t *testing.T) {
	run := func() float64 {
		e := sim.NewEngine()
		e.MaxTime = sim.Time(600 * sim.Second)
		cluster := topo.Server3090(4)
		b := orch.NewStaticSort(e, cluster)
		res, err := RunHybrid(e, cluster, b, HybridConfig{
			Model: smallModel(), TP: 2, DP: 2, PP: 1,
			MicrobatchSize: 4, NumMicrobatches: 2, Iterations: 4,
			JitterPct: 0.05, JitterSeed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("jittered runs differ: %v vs %v", a, b)
	}
}

func TestJitterProducesVariance(t *testing.T) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	cluster := topo.Server3090(2)
	b := orch.NewStaticSort(e, cluster)
	res, err := RunHybrid(e, cluster, b, HybridConfig{
		Model: smallModel(), TP: 1, DP: 2, PP: 1,
		MicrobatchSize: 8, NumMicrobatches: 1, Iterations: 10,
		JitterPct: 0.05, JitterSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.IterTimes.CoV() <= 0 {
		t.Fatal("jitter produced zero iteration-time variance")
	}
	// Without jitter, CoV must be (near) zero.
	e2 := sim.NewEngine()
	e2.MaxTime = sim.Time(600 * sim.Second)
	cluster2 := topo.Server3090(2)
	b2 := orch.NewStaticSort(e2, cluster2)
	res2, err := RunHybrid(e2, cluster2, b2, HybridConfig{
		Model: smallModel(), TP: 1, DP: 2, PP: 1,
		MicrobatchSize: 8, NumMicrobatches: 1, Iterations: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.IterTimes.CoV() > 0.001 {
		t.Fatalf("deterministic run has CoV %v", res2.IterTimes.CoV())
	}
}

func TestHybridPipelineOnlyPP(t *testing.T) {
	// Pure pipeline parallelism: activations must flow through every
	// stage and iterations must complete on both backends.
	for _, backend := range []string{"static", "dfccl"} {
		e := sim.NewEngine()
		e.MaxTime = sim.Time(600 * sim.Second)
		cluster := topo.Server3090(4)
		var b orch.Backend
		if backend == "static" {
			b = orch.NewStaticSort(e, cluster)
		} else {
			b = orch.NewDFCCL(e, cluster, core.DefaultConfig())
		}
		res, err := RunHybrid(e, cluster, b, HybridConfig{
			Model: smallModel(), TP: 1, DP: 1, PP: 4,
			MicrobatchSize: 4, NumMicrobatches: 4, Iterations: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Throughput <= 0 {
			t.Fatalf("%s: no throughput", backend)
		}
	}
}

func TestMoreMicrobatchesImprovePipelineUtilization(t *testing.T) {
	// With a fixed global batch, more microbatches shrink the pipeline
	// bubble, so per-sample time improves.
	run := func(mbs, mbSize int) float64 {
		e := sim.NewEngine()
		e.MaxTime = sim.Time(600 * sim.Second)
		cluster := topo.Server3090(4)
		b := orch.NewStaticSort(e, cluster)
		res, err := RunHybrid(e, cluster, b, HybridConfig{
			Model: smallModel(), TP: 1, DP: 1, PP: 4,
			MicrobatchSize: mbSize, NumMicrobatches: mbs, Iterations: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	coarse := run(1, 16)
	fine := run(8, 2)
	if fine <= coarse {
		t.Fatalf("8 microbatches (%.1f) not faster than 1 (%.1f)", fine, coarse)
	}
}

// recordingBackend wraps a real backend and records registered specs.
type recordingBackend struct {
	orch.Backend
	specs map[int]prim.Spec
}

func (r *recordingBackend) Register(p *sim.Process, rank, collID int, spec prim.Spec, priority int, send, recv *mem.Buffer) error {
	if r.specs == nil {
		r.specs = make(map[int]prim.Spec)
	}
	r.specs[collID] = spec
	return r.Backend.Register(p, rank, collID, spec, priority, send, recv)
}

func TestDPGradientShardingByTP(t *testing.T) {
	// Under TP, each rank all-reduces only its gradient shard: the DP
	// collective's element count must shrink with TP degree.
	cfg := HybridConfig{Model: ViTBase(), TP: 2, DP: 2, PP: 1, MicrobatchSize: 1, NumMicrobatches: 1, Iterations: 1}
	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	cluster := topo.Server3090(4)
	rb := &recordingBackend{Backend: orch.NewStaticSort(e, cluster)}
	if _, err := RunHybrid(e, cluster, rb, cfg); err != nil {
		t.Fatal(err)
	}
	layer := cfg.Model.Layers[1]
	want := layer.GradElems/cfg.TP + 1
	found := false
	for id, spec := range rb.specs {
		if id >= collDPBase && id < collFwdActBase && spec.Count == want && len(spec.Ranks) == cfg.DP {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no DP collective with sharded count %d over %d ranks", want, cfg.DP)
	}
}
