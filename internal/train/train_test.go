package train

import (
	"math/rand"
	"testing"

	"dfccl/internal/core"
	"dfccl/internal/orch"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// totalParams is m's gradient element count.
func totalParams(m Model) int {
	total := 0
	for _, l := range m.Layers {
		total += l.GradElems
	}
	return total
}

// computePerSample is m's summed fwd+bwd compute per sample.
func computePerSample(m Model) sim.Duration {
	var total sim.Duration
	for _, l := range m.Layers {
		total += l.FwdPerSample + l.BwdPerSample
	}
	return total
}

func TestModelShapes(t *testing.T) {
	r := ResNet50()
	if got := totalParams(r); got < 24_000_000 || got > 27_000_000 {
		t.Fatalf("resnet50 params = %d, want ≈25.5M", got)
	}
	if len(r.Layers) != 54 {
		t.Fatalf("resnet50 layers = %d, want 54", len(r.Layers))
	}
	vb, vl := ViTBase(), ViTLarge()
	if totalParams(vb) >= totalParams(vl) {
		t.Fatal("ViT-Large should have more parameters than ViT-Base")
	}
	if computePerSample(vb) >= computePerSample(vl) {
		t.Fatal("ViT-Large should cost more compute per sample")
	}
	g := GPT2()
	if totalParams(g) < 100_000_000 {
		t.Fatalf("gpt2 params = %d, want >100M", totalParams(g))
	}
	for _, l := range vb.Layers[1 : len(vb.Layers)-1] {
		if l.TPCommElems == 0 {
			t.Fatalf("transformer block %s missing TP comm size", l.Name)
		}
	}
}

func TestSpeedFactor(t *testing.T) {
	if SpeedFactor(topo.RTX3090) != 1.0 {
		t.Fatal("3090 is the reference GPU")
	}
	if SpeedFactor(topo.RTX3080Ti) <= 1.0 {
		t.Fatal("3080Ti should be slower than 3090")
	}
}

func TestHybridRankLayout(t *testing.T) {
	cfg := HybridConfig{TP: 4, DP: 2, PP: 4}
	if cfg.GPUs() != 32 {
		t.Fatalf("GPUs = %d, want 32", cfg.GPUs())
	}
	for rank := 0; rank < 32; rank++ {
		tp, dp, pp := cfg.coords(rank)
		if cfg.rank(tp, dp, pp) != rank {
			t.Fatalf("rank %d round-trip failed: (%d,%d,%d)", rank, tp, dp, pp)
		}
	}
	// TP-fastest layout: ranks 0-3 share a TP group.
	if tp, dp, pp := cfg.coords(3); tp != 3 || dp != 0 || pp != 0 {
		t.Fatalf("coords(3) = (%d,%d,%d), want (3,0,0)", tp, dp, pp)
	}
}

func TestStageSplit(t *testing.T) {
	cfg := HybridConfig{Model: Model{Layers: make([]Layer, 10)}, PP: 4}
	total := 0
	prevHi := 0
	for s := 0; s < 4; s++ {
		lo, hi := cfg.stageLayers(s)
		if lo != prevHi {
			t.Fatalf("stage %d starts at %d, want %d", s, lo, prevHi)
		}
		total += hi - lo
		prevHi = hi
	}
	if total != 10 {
		t.Fatalf("stages cover %d layers, want 10", total)
	}
}

// smallModel is a 4-block miniature transformer that keeps driver tests
// fast.
func smallModel() Model { return transformer("tiny", 4, 64, 16, 400, 2*64*16) }

func TestRunDPWithDFCCL(t *testing.T) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	cluster := topo.Server3090(4)
	b := orch.NewDFCCL(e, cluster, core.DefaultConfig())
	res, err := RunDP(e, cluster, b, DPConfig{Model: smallModel(), BatchPerGPU: 8, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	if res.IterTimes.Len() != 3 {
		t.Fatalf("iter samples = %d, want 3", res.IterTimes.Len())
	}
}

func TestRunDPAllBackendsAgreeOnWork(t *testing.T) {
	// Every backend must complete the same training computation; the
	// ordering baselines may only be slower, never faster, than
	// static sorting.
	mk := func(name string) (*sim.Engine, *topo.Cluster, orch.Backend) {
		e := sim.NewEngine()
		e.MaxTime = sim.Time(600 * sim.Second)
		cluster := topo.Server3090(4)
		switch name {
		case "static":
			return e, cluster, orch.NewStaticSort(e, cluster)
		case "horovod":
			return e, cluster, orch.NewHorovod(e, cluster)
		case "kungfu":
			return e, cluster, orch.NewKungFu(e, cluster)
		default:
			e2 := sim.NewEngine()
			e2.MaxTime = sim.Time(600 * sim.Second)
			return e2, cluster, orch.NewDFCCL(e2, topo.Server3090(4), core.DefaultConfig())
		}
	}
	results := map[string]*Result{}
	for _, name := range []string{"static", "horovod", "kungfu", "dfccl"} {
		e, cluster, b := mk(name)
		res, err := RunDP(e, cluster, b, DPConfig{Model: smallModel(), BatchPerGPU: 8, Iterations: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = res
	}
	static := results["static"].Throughput
	for _, name := range []string{"horovod", "kungfu"} {
		if results[name].Throughput > static*1.01 {
			t.Errorf("%s throughput %.1f exceeds static sorting %.1f", name, results[name].Throughput, static)
		}
	}
	// DFCCL should be within a reasonable band of static sorting.
	d := results["dfccl"].Throughput
	if d < static*0.8 || d > static*1.25 {
		t.Errorf("dfccl %.1f vs static %.1f outside ±20%% band", d, static)
	}
}

func TestRunDPDisorderedLaunchDFCCL(t *testing.T) {
	// With DFCCL the launch order can differ per rank and per
	// iteration — the scenario that would deadlock single-queue NCCL.
	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	cluster := topo.Server3090(4)
	b := orch.NewDFCCL(e, cluster, core.DefaultConfig())
	rngs := make([]*rand.Rand, 4)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(100 + i)))
	}
	res, err := RunDP(e, cluster, b, DPConfig{
		Model: smallModel(), BatchPerGPU: 8, Iterations: 3,
		Disorder: func(rank, iter int, order []int) {
			rngs[rank].Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

func TestRunHybrid3D(t *testing.T) {
	for _, backend := range []string{"dfccl", "static"} {
		e := sim.NewEngine()
		e.MaxTime = sim.Time(600 * sim.Second)
		cluster := topo.MultiNode3090(1)
		var b orch.Backend
		if backend == "dfccl" {
			b = orch.NewDFCCL(e, cluster, core.DefaultConfig())
		} else {
			b = orch.NewStaticSort(e, cluster)
		}
		cfg := HybridConfig{
			Model: smallModel(), TP: 2, DP: 2, PP: 2,
			MicrobatchSize: 4, NumMicrobatches: 3, Iterations: 2,
		}
		res, err := RunHybrid(e, cluster, b, cfg)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Throughput <= 0 {
			t.Fatalf("%s: no throughput", backend)
		}
		if res.IterTimes.Len() != 2 {
			t.Fatalf("%s: iters = %d", backend, res.IterTimes.Len())
		}
	}
}

func TestRunHybridPureTP(t *testing.T) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	cluster := topo.Server3090(4)
	b := orch.NewDFCCL(e, cluster, core.DefaultConfig())
	cfg := HybridConfig{
		Model: smallModel(), TP: 4, DP: 1, PP: 1,
		MicrobatchSize: 8, NumMicrobatches: 1, Iterations: 2,
	}
	res, err := RunHybrid(e, cluster, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

func TestTPCommSlowsThroughput(t *testing.T) {
	// Pure TP must be slower than DP at equal global batch because of
	// per-layer activation all-reduces — the Fig. 12(a) vs 12(b) gap.
	run := func(tp, dp int) float64 {
		e := sim.NewEngine()
		e.MaxTime = sim.Time(600 * sim.Second)
		cluster := topo.Server3090(4)
		b := orch.NewStaticSort(e, cluster)
		cfg := HybridConfig{
			Model: smallModel(), TP: tp, DP: dp, PP: 1,
			MicrobatchSize: 16 / dp, NumMicrobatches: 1, Iterations: 3,
		}
		res, err := RunHybrid(e, cluster, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	tpThroughput := run(4, 1)
	dpThroughput := run(1, 4)
	if tpThroughput >= dpThroughput {
		t.Fatalf("TP %.1f should be slower than DP %.1f", tpThroughput, dpThroughput)
	}
}
