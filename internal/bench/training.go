package bench

import (
	"fmt"
	"strings"

	"dfccl/internal/core"
	"dfccl/internal/deadlocksim"
	"dfccl/internal/mem"
	"dfccl/internal/ncclsim"
	"dfccl/internal/orch"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/train"
)

// Fig10Row is one bar of the ResNet50 data-parallel comparison.
type Fig10Row struct {
	Server     string
	Backend    string
	Throughput float64
}

// newBackend builds the named orchestration backend over cluster on a
// fresh engine: "dfccl" (default configuration), "oneflow-static" /
// "nccl-staticsort" (NCCL under static sorting), "kungfu", "horovod",
// or "nccl-singlestream".
func newBackend(name string, cluster *topo.Cluster) (*sim.Engine, orch.Backend) {
	e := newEngine()
	switch name {
	case "dfccl":
		return e, orch.NewDFCCL(e, cluster, core.DefaultConfig())
	case "oneflow-static", "nccl-staticsort":
		return e, orch.NewStaticSort(e, cluster)
	case "kungfu":
		return e, orch.NewKungFu(e, cluster)
	case "horovod":
		return e, orch.NewHorovod(e, cluster)
	case "nccl-singlestream":
		return e, orch.NewNCCLSingleStream(e, cluster)
	default:
		panic(fmt.Sprintf("bench: unknown backend %q", name))
	}
}

// Fig10 runs ResNet50 data-parallel training on eight 3080Ti and eight
// 3090 GPUs across the four methods of the paper's Fig. 10: OneFlow
// static sorting, DFCCL, KungFu, and Horovod.
func Fig10(iterations int) ([]Fig10Row, error) {
	var rows []Fig10Row
	servers := []struct {
		name    string
		cluster func() *topo.Cluster
		batch   int
	}{
		{"3080ti", func() *topo.Cluster { return topo.Server3080Ti(8) }, 48},
		{"3090", func() *topo.Cluster { return topo.Server3090(8) }, 96},
	}
	for _, sv := range servers {
		for _, name := range []string{"oneflow-static", "dfccl", "kungfu", "horovod"} {
			cluster := sv.cluster()
			e, b := newBackend(name, cluster)
			res, err := train.RunDP(e, cluster, b, train.DPConfig{
				Model: train.ResNet50(), BatchPerGPU: sv.batch, Iterations: iterations,
			})
			if err != nil {
				return nil, fmt.Errorf("fig10 %s/%s: %w", sv.name, name, err)
			}
			rows = append(rows, Fig10Row{Server: sv.name, Backend: name, Throughput: res.Throughput})
		}
	}
	return rows, nil
}

// Fig11Result carries the adaptive-vs-naive spin policy case study.
type Fig11Result struct {
	Policy     string
	Throughput float64
	// CtxSwitches[i] is the number of context switches of gradient
	// collective i on GPU 0 over the measured iterations; QueueLens[i]
	// is the task queue length after its last SQE fetch.
	CtxSwitches []int
	QueueLens   []int
	MaxCtx      int
	MaxQueueLen int
}

// Fig11 trains ResNet50 with DP on four 3090s under the naive fixed
// spin threshold (10,000, no adaptation) and under the adaptive policy
// (100,000 initial at queue front, ×20 boost), reproducing the paper's
// spike analysis. A straggler delay on GPU 2's launches recreates the
// burst scenario described in Sec. 6.4.1.
func Fig11(iterations int) (naive, adaptive Fig11Result, err error) {
	run := func(policy core.SpinPolicy, name string) (Fig11Result, error) {
		e := newEngine()
		cluster := topo.Server3090(4)
		cfg := core.DefaultConfig()
		cfg.Spin = policy
		b := orch.NewDFCCL(e, cluster, cfg)
		res, err := train.RunDP(e, cluster, b, train.DPConfig{
			Model: train.ResNet50(), BatchPerGPU: 96, Iterations: iterations,
			StragglerRank: 2, StragglerDelay: 3 * sim.Millisecond,
		})
		if err != nil {
			return Fig11Result{}, err
		}
		out := Fig11Result{Policy: name, Throughput: res.Throughput}
		rc := b.Sys.Init(nil, 0)
		for li := range train.ResNet50().Layers {
			ctx, _, qlen := rc.TaskStats(li)
			out.CtxSwitches = append(out.CtxSwitches, ctx)
			out.QueueLens = append(out.QueueLens, qlen)
			if ctx > out.MaxCtx {
				out.MaxCtx = ctx
			}
			if qlen > out.MaxQueueLen {
				out.MaxQueueLen = qlen
			}
		}
		return out, nil
	}
	naive, err = run(core.NaiveSpinPolicy(), "naive-fixed-10k")
	if err != nil {
		return
	}
	adaptive, err = run(core.DefaultSpinPolicy(), "adaptive")
	return
}

// Fig12Row is one ViT training configuration.
type Fig12Row struct {
	Name       string
	NCCL       float64 // static-sorted/manual NCCL throughput
	DFCCL      float64
	NCCLSeries []float64 // running-average throughput per iteration
	DFCCLSer   []float64
}

// hybridCase is one hybrid-parallel configuration of Figs. 12-13.
type hybridCase struct {
	name   string
	nodes  int
	hybrid train.HybridConfig
}

// hybridPair trains one hybrid configuration for the given iteration
// count on static-sorted NCCL and on DFCCL.
func hybridPair(fig string, c hybridCase, iterations int) (nccl, dfccl *train.Result, err error) {
	c.hybrid.Iterations = iterations
	run := func(lib, backend string) (*train.Result, error) {
		cluster := topo.MultiNode3090(c.nodes)
		e, b := newBackend(backend, cluster)
		res, err := train.RunHybrid(e, cluster, b, c.hybrid)
		if err != nil {
			return nil, fmt.Errorf("%s %s/%s: %w", fig, c.name, lib, err)
		}
		return res, nil
	}
	if nccl, err = run("nccl", "nccl-staticsort"); err != nil {
		return nil, nil, err
	}
	dfccl, err = run("dfccl", "dfccl")
	return nccl, dfccl, err
}

// Fig12 runs the four ViT configurations of Fig. 12: DP on 8 GPUs,
// TP on 8 GPUs, 3D hybrid (base) on 16 GPUs, 3D hybrid (large) on 16.
func Fig12(iterations int) ([]Fig12Row, error) {
	var rows []Fig12Row
	for _, c := range []hybridCase{
		{"vit-base-dp8", 1, train.HybridConfig{Model: train.ViTBase(), TP: 1, DP: 8, PP: 1, MicrobatchSize: 128, NumMicrobatches: 1}},
		{"vit-base-tp8", 1, train.HybridConfig{Model: train.ViTBase(), TP: 8, DP: 1, PP: 1, MicrobatchSize: 128, NumMicrobatches: 1}},
		{"vit-base-3d16", 2, train.HybridConfig{Model: train.ViTBase(), TP: 2, DP: 2, PP: 4, MicrobatchSize: 128, NumMicrobatches: 4}},
		{"vit-large-3d16", 2, train.HybridConfig{Model: train.ViTLarge(), TP: 2, DP: 2, PP: 4, MicrobatchSize: 128, NumMicrobatches: 4}},
	} {
		nccl, dfccl, err := hybridPair("fig12", c, iterations)
		if err != nil {
			return nil, err
		}
		samples := c.hybrid.SamplesPerIteration()
		rows = append(rows, Fig12Row{
			Name: c.name,
			NCCL: nccl.Throughput, NCCLSeries: nccl.RunningThroughput(samples),
			DFCCL: dfccl.Throughput, DFCCLSer: dfccl.RunningThroughput(samples),
		})
	}
	return rows, nil
}

// Fig13Row is one GPT-2 configuration: per-iteration time and its
// coefficient of variation for both libraries.
type Fig13Row struct {
	Name              string
	NCCLIterMS        float64
	DFCCLIterMS       float64
	NCCLCoV, DFCCLCoV float64
}

// Fig13 runs GPT-2 under 3D hybrid parallelism on 8 and 16 GPUs with
// microbatch size 18, comparing per-iteration time and stability.
func Fig13(iterations int) ([]Fig13Row, error) {
	var rows []Fig13Row
	for _, c := range []hybridCase{
		{"gpt2-3d8", 1, train.HybridConfig{Model: train.GPT2(), TP: 2, DP: 2, PP: 2, MicrobatchSize: 18, NumMicrobatches: 4, JitterPct: 0.06, JitterSeed: 11}},
		{"gpt2-3d16", 2, train.HybridConfig{Model: train.GPT2(), TP: 2, DP: 2, PP: 4, MicrobatchSize: 18, NumMicrobatches: 4, JitterPct: 0.06, JitterSeed: 11}},
	} {
		nccl, dfccl, err := hybridPair("fig13", c, iterations)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig13Row{
			Name:       c.name,
			NCCLIterMS: nccl.IterTimes.Mean() * 1000, NCCLCoV: nccl.IterTimes.CoV(),
			DFCCLIterMS: dfccl.IterTimes.Mean() * 1000, DFCCLCoV: dfccl.IterTimes.CoV(),
		})
	}
	return rows, nil
}

// Sec61Result summarizes one deadlock-prevention testing program.
type Sec61Result struct {
	Program        string
	Lib            string
	Deadlocked     bool
	Completed      int
	Preemptions    int
	VoluntaryQuits int
}

// Sec61Program1 runs the first testing program (eight GPUs, eight
// all-reduces of 256B-32KB, unique random launch order per GPU,
// iterations of the whole set) over DFCCL or the NCCL baseline.
func Sec61Program1(lib string, iterations int, seed int64) (Sec61Result, error) {
	if lib == "nccl" {
		// Program 1 uses a single queue (stream) per GPU, the paper's
		// Fig. 1(c) regime; the NCCL baseline deadlocks there.
		return sec61NCCLSingleQueue(sec61Workload(8, 8, seed))
	}
	ext, err := sec61Run(core.DefaultConfig(), iterations, seed, false)
	return ext.Sec61Result, err
}

// Sec61Program2 inserts cudaDeviceSynchronize between the disordered
// all-reduces (DFCCL only; NCCL deadlocks already in program 1).
func Sec61Program2(iterations int, seed int64) (Sec61Result, error) {
	ext, err := sec61Run(core.DefaultConfig(), iterations, seed, true)
	return ext.Sec61Result, err
}

func collSpec(count int, ranks []int) prim.Spec {
	return prim.Spec{
		Kind: prim.AllReduce, Count: count, Type: mem.Float32, Op: mem.Sum,
		Ranks: ranks, TimingOnly: true,
	}
}

// sec61NCCLSingleQueue launches the eight disordered all-reduces on a
// single stream per GPU over the NCCL baseline; the engine reports the
// deadlock.
func sec61NCCLSingleQueue(orders [][]int, sizes []int) (Sec61Result, error) {
	nGPU := len(orders)
	e := newEngine()
	lib := ncclsim.New(e, topo.Server3090(nGPU))
	ranks := seqRanks(nGPU)
	comms := make([]*ncclsim.Comm, len(sizes))
	for i := range comms {
		comms[i] = lib.NewComm(ranks)
	}
	err := e.RunRanks("sec61.nccl", nGPU, func(p *sim.Process, rank int) error {
		st := lib.Device(rank).NewStream()
		send, recv := zeroBuf(), zeroBuf()
		for _, c := range orders[rank] {
			comms[c].Launch(p, st, rank, collSpec(sizes[c], ranks), send, recv)
		}
		return nil
	})
	if err != nil && !stalled(err) {
		return Sec61Result{}, err
	}
	return Sec61Result{Program: "1", Lib: "nccl", Deadlocked: err != nil}, nil
}

// Table1Filtered runs only the Table 1 configurations whose name
// contains substr (all of them when substr is empty) — the fast path
// for smoke runs and for iterating on a single configuration. A
// non-empty substr matching no configuration is an error, so a stale
// filter cannot masquerade as a passing run.
func Table1Filtered(rounds, bigConfigRounds int, substr string) ([]Table1Row, error) {
	var rows []Table1Row
	for _, cfg := range deadlocksim.Table1Configs(rounds) {
		if substr != "" && !strings.Contains(cfg.Name, substr) {
			continue
		}
		if cfg.NumGPUs > 1000 && bigConfigRounds > 0 {
			cfg.Rounds = bigConfigRounds
		}
		res, err := deadlocksim.Run(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Name:     cfg.Name,
			Measured: res.Ratio(),
			Paper:    paperTable1[cfg.Name],
		})
	}
	if substr != "" && len(rows) == 0 {
		return nil, fmt.Errorf("bench: no Table 1 configuration matches %q", substr)
	}
	return rows, nil
}

// Table1Row pairs a measured deadlock ratio with the paper's value.
type Table1Row struct {
	Name     string
	Measured float64
	Paper    float64
}

// paperTable1 records the ratios the paper reports, for side-by-side
// printing in EXPERIMENTS.md and cmd/deadlocksim.
var paperTable1 = map[string]float64{
	"sq-3d(4,4,4)-dis1e-7":                  0.0110,
	"sq-3d(4,4,4)-dis1e-6":                  0.0997,
	"sq-3d(8,6,64)-dis1e-9":                 0.0047,
	"sq-3d(8,6,64)-dis1e-8":                 0.0359,
	"sq-free(1,8)-dis1e-5":                  0.0121,
	"sq-free(32,64)-dis1e-6":                0.0098,
	"sq-free(32,64)-dis1e-5":                0.0945,
	"sq-free(32,128)-dis1e-6":               0.0172,
	"sync-3d(4,4,4)-d2e-3-s4e-3":            0.0068,
	"sync-3d(4,4,4)-d4e-3-s4e-3":            0.0138,
	"sync-3d(4,4,4)-d4e-3-s2e-3":            0.0032,
	"sync-3d(4,4,4)-800,2400-d4e-3-s4e-3":   0.0256,
	"sync-3d(8,6,64)-d8e-4-s8e-4":           0.0156,
	"sync-free(32,64)-d4e-6-s4e-5":          0.0081,
	"sync-free(32,64)-d4e-5-s4e-5":          0.0116,
	"sync-free(32,64)-d4e-5-s8e-5":          0.0656,
	"sync-free(32,64)-800,2400-d4e-5-s4e-5": 0.0694,
	"sync-free(32,128)-d4e-5-s4e-5":         0.0234,
}
