// Command trainbench regenerates the DNN-training evaluation and runs
// the repository's gates, one figure per invocation: `-fig help` lists
// the figures (the table below is the single source), -iters overrides
// a figure's default iteration count, -trials sets the disordered-
// schedule count of the moe/zero deadlock-ratio tallies, and -out names
// the output file or directory of the figures that write one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dfccl/internal/bench"
)

// opts are the flags a figure sees; iters is already resolved to the
// figure's default when the flag was not given.
type opts struct {
	iters, trials int
	out           string
}

// figure is one -fig value: what it shows, its default iteration count
// (0 = the figure takes none), and how to run it. A non-nil error from
// run is a failed gate and makes trainbench exit non-zero.
type figure struct {
	name, doc string
	iters     int
	run       func(o opts) error
}

var figures = []figure{
	{"10", "ResNet50 data parallelism under four orchestration methods (paper Fig. 10)", 200, fig10},
	{"11", "adaptive vs naive spin-threshold case study (paper Fig. 11)", 3, fig11},
	{"12", "ViT under DP / TP / 3D-hybrid parallelism (paper Fig. 12)", 50, fig12},
	{"13", "GPT-2 under 3D-hybrid parallelism (paper Fig. 13)", 200, fig13},
	{"moe", "MoE expert parallelism: all-to-all(v) dispatch/combine, dynamic expert groups, deadlock ratio vs NCCL; gate: all-to-all-v bit-identical to the padded reference with fewer bytes", 20, figMoE},
	{"zero", "ZeRO/FSDP sharded data parallelism, stages 1-3, stage-3 churn, deadlock ratio vs NCCL", 20, figZeRO},
	{"a2a", "all-to-all algorithm sweep (ring vs hierarchical across node counts and skew) and shared-fabric congestion sweep; gates: bench.A2AGate, bench.ContentionGate", 0, figA2A},
	{"a2abench", "all-to-all + chaos benchmark cells as JSON to -out (default stdout); a subset of collbench", 0, figA2ABench},
	{"chaos", "fault-injection gate: seeded kill/revive schedules against live DP, MoE and ZeRO workloads (bench.Chaos)", 6, figChaos},
	{"cluster", "multi-tenant cluster gate: bursty heterogeneous jobs under FIFO / priority / bin-packing admission (bench.ClusterGate)", 0, figCluster},
	{"ar", "auto-tuning gate: ring vs hierarchical vs auto for all-reduce / all-gather / reduce-scatter (bench.AutoAlgoGate)", 0, figAR},
	{"tune", "regenerate the auto-tuning table to -out (default internal/tune/default_table.json); a re-run is a no-op diff", 0, figTune},
	{"collbench", "the full benchmark matrix as JSON to -out (default stdout); `make bench` writes BENCH.json", 0, figCollBench},
	{"trace", "flight-recorder gate: DP + hierarchical MoE + kill/reform/revive with the recorder installed; writes trace.json and metrics.json into -out (default .) (bench.TraceFig)", 0, figTrace},
}

func figureNames() string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return strings.Join(names, ", ")
}

func main() {
	fig := flag.String("fig", "10", "figure to regenerate: "+figureNames()+"; help lists what each shows")
	iters := flag.Int("iters", 0, "training iterations (0 = figure default)")
	trials := flag.Int("trials", 5, "disordered trials for the moe/zero deadlock tally")
	out := flag.String("out", "", "output file for -fig a2abench/collbench (default stdout), -fig tune (default internal/tune/default_table.json), and the directory for -fig trace artifacts (default .)")
	flag.Parse()

	if *fig == "help" {
		for _, f := range figures {
			fmt.Printf("-fig %-10s %s", f.name, f.doc)
			if f.iters > 0 {
				fmt.Printf(" [default -iters %d]", f.iters)
			}
			fmt.Println()
		}
		return
	}
	for _, f := range figures {
		if f.name != *fig {
			continue
		}
		o := opts{iters: f.iters, trials: *trials, out: *out}
		if *iters > 0 {
			o.iters = *iters
		}
		check(f.run(o))
		return
	}
	check(fmt.Errorf("unknown -fig %q (have %s; -fig help describes them)", *fig, figureNames()))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainbench:", err)
		os.Exit(1)
	}
}

func fig10(o opts) error {
	rows, err := bench.Fig10(o.iters)
	if err != nil {
		return err
	}
	fmt.Printf("ResNet50 data-parallel training throughput (samples/s, %d iterations)\n", o.iters)
	paper := map[string]float64{
		"3080ti/oneflow-static": 442.7, "3080ti/dfccl": 447.9, "3080ti/kungfu": 372.1, "3080ti/horovod": 366.2,
		"3090/oneflow-static": 507.7, "3090/dfccl": 508.4, "3090/kungfu": 419.1, "3090/horovod": 415.6,
	}
	for _, r := range rows {
		key := r.Server + "/" + r.Backend
		fmt.Printf("  %-24s %8.1f   (paper: %.1f)\n", key, r.Throughput, paper[key])
	}
	return nil
}

func fig11(o opts) error {
	naive, adaptive, err := bench.Fig11(o.iters)
	if err != nil {
		return err
	}
	for _, r := range []bench.Fig11Result{naive, adaptive} {
		fmt.Printf("policy=%s throughput=%.1f samples/s  max-ctx-switches=%d  max-queue-len=%d\n",
			r.Policy, r.Throughput, r.MaxCtx, r.MaxQueueLen)
	}
	fmt.Println("(paper: naive policy spikes to hundreds of context switches and queue length ~25,")
	fmt.Println(" dropping throughput from >500 to <100; the adaptive policy eliminates the spikes)")
	return nil
}

func fig12(o opts) error {
	rows, err := bench.Fig12(o.iters)
	if err != nil {
		return err
	}
	fmt.Printf("ViT training throughput (samples/s, %d iterations)\n", o.iters)
	for _, r := range rows {
		diff := 100 * (r.DFCCL - r.NCCL) / r.NCCL
		fmt.Printf("  %-16s nccl=%8.1f dfccl=%8.1f  (%+.1f%%; paper: within ±3%% to +8.6%%)\n",
			r.Name, r.NCCL, r.DFCCL, diff)
	}
	return nil
}

func fig13(o opts) error {
	rows, err := bench.Fig13(o.iters)
	if err != nil {
		return err
	}
	fmt.Printf("GPT-2 per-iteration training time (ms, %d iterations)\n", o.iters)
	for _, r := range rows {
		diff := 100 * (r.DFCCLIterMS - r.NCCLIterMS) / r.NCCLIterMS
		fmt.Printf("  %-12s nccl=%8.1fms (CoV %.1f%%)  dfccl=%8.1fms (CoV %.1f%%)  (%+.1f%%; paper: within ±4%%)\n",
			r.Name, r.NCCLIterMS, 100*r.NCCLCoV, r.DFCCLIterMS, 100*r.DFCCLCoV, diff)
	}
	return nil
}

func figMoE(o opts) error {
	rows, dispatch, tally, err := bench.MoE(o.iters, o.trials)
	if err != nil {
		return err
	}
	fmt.Printf("MoE expert parallelism (4 experts, top-2 skewed routing, dynamic groups, %d iterations)\n", o.iters)
	for _, r := range rows {
		fmt.Printf("  %-20s %10.1f tokens/s   communicators created: %d   alltoall payload: %s\n",
			r.Backend, r.Throughput, r.CommsCreated, bench.HumanBytes(int(r.A2ABytes)))
	}
	fmt.Printf("dispatch bytes moved under the skewed router: padded all-to-all %s, all-to-all-v %s (-%.1f%%)\n",
		bench.HumanBytes(int(dispatch.PaddedBytes)), bench.HumanBytes(int(dispatch.RaggedBytes)), 100*dispatch.Savings())
	fmt.Printf("combined token outputs bit-identical to the padded reference: %v\n", dispatch.BitIdentical)
	if !dispatch.BitIdentical {
		return fmt.Errorf("all-to-all-v outputs diverged from the padded reference")
	}
	if dispatch.RaggedBytes >= dispatch.PaddedBytes {
		return fmt.Errorf("all-to-all-v moved %d bytes, padded reference %d: no savings under skew",
			dispatch.RaggedBytes, dispatch.PaddedBytes)
	}
	fmt.Printf("deadlock ratio over %d disordered schedules: dfccl %.2f, nccl-singlestream %.2f\n",
		tally.Trials, tally.Ratio(true), tally.Ratio(false))
	if tally.Ratio(true) == 0 && tally.Ratio(false) == 1 {
		fmt.Println("(dfccl reuses pooled communicators across expert-group churn and absorbs the disorder;")
		fmt.Println(" single-stream NCCL deadlocks on every disordered schedule, as in the paper's Fig. 1)")
	}
	return nil
}

func figZeRO(o opts) error {
	rows, tally, err := bench.ZeRO(o.iters, o.trials)
	if err != nil {
		return err
	}
	fmt.Printf("ZeRO/FSDP sharded data parallelism (4 ranks, %d iterations; results verified vs unsharded reference)\n", o.iters)
	for _, r := range rows {
		extra := ""
		if r.CommsCreated > 0 {
			extra = fmt.Sprintf("   communicators created: %d (flat under churn)", r.CommsCreated)
		}
		fmt.Printf("  stage %d %-16s %10.1f samples/s%s\n", r.Stage, r.Backend, r.Throughput, extra)
	}
	fmt.Printf("deadlock ratio over %d disordered stage-2 schedules: dfccl %.2f, nccl-singlestream %.2f\n",
		tally.Trials, tally.Ratio(true), tally.Ratio(false))
	return nil
}

func figA2A(opts) error {
	rows, err := bench.AllToAllAlgoSweep()
	if err != nil {
		return err
	}
	fmt.Println("all-to-all algorithm sweep (real-data AllToAllv, ring vs hierarchical; bytes are total wire traffic incl. forwarding hops)")
	for _, r := range rows {
		fmt.Println("  " + r.String())
	}
	if err := bench.A2AGate(rows); err != nil {
		return err
	}
	fmt.Println("hierarchical outputs bit-identical to the ring on every shape; RDMA bytes strictly lower on multi-node shapes")

	fmt.Println()
	fmt.Println("congestion sweep (shared fabric, leaf+spine oversubscription F; 4×4 GPUs, bandwidth-dominated blocks)")
	crows, err := bench.AllToAllContentionSweep([]float64{1, 2, 4})
	if err != nil {
		return err
	}
	for _, r := range crows {
		fmt.Println("  " + r.String())
		line := "      tiers:"
		for _, t := range r.Tiers {
			line += fmt.Sprintf("  %v peak=%.2f sat=%v", t.Tier, t.PeakUtil, t.Saturated)
		}
		fmt.Println(line)
	}
	for _, a := range bench.HierAdvantages(crows) {
		fmt.Println("  " + a.String())
	}
	if err := bench.ContentionGate(crows); err != nil {
		return err
	}
	fmt.Println("contention gates passed: spine visible at F>1, inter-leader flows above isolated-sum, advantage monotone, outputs bit-identical")
	return nil
}

// writeCells writes benchmark cells as indented JSON to path, or to
// stdout when path is empty.
func writeCells(cells []bench.BenchCell, path string) error {
	buf, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func figA2ABench(o opts) error {
	cells, err := bench.A2ABenchMatrix()
	if err != nil {
		return err
	}
	return writeCells(cells, o.out)
}

func figCollBench(o opts) error {
	cells, err := bench.FullBenchMatrix()
	if err != nil {
		return err
	}
	return writeCells(cells, o.out)
}

func figTune(o opts) error {
	tbl, err := bench.TuneSweep()
	if err != nil {
		return err
	}
	buf, err := tbl.Marshal()
	if err != nil {
		return err
	}
	path := o.out
	if path == "" {
		path = "internal/tune/default_table.json"
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("tuning table regenerated: %d rows -> %s\n", len(tbl.Rows), path)
	return nil
}

func figAR(opts) error {
	rows, ok, err := bench.AutoAlgoGate()
	if err != nil {
		return err
	}
	fmt.Println("auto-tuning gate (ring vs hierarchical vs auto; auto resolved from the committed tuning table)")
	for _, r := range rows {
		fmt.Println("  " + r.String())
	}
	if !ok {
		return fmt.Errorf("auto pick missed the per-cell winner (or outputs diverged) in at least one cell")
	}
	fmt.Println("auto gate passed: every auto pick matched the per-cell winner within tolerance, outputs bit-identical to the ring")
	return nil
}

func figTrace(o opts) error {
	res, err := bench.TraceFig()
	if err != nil {
		return err
	}
	dir := o.out
	if dir == "" {
		dir = "."
	}
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	if err := os.WriteFile(tracePath, res.TraceJSON, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(metricsPath, res.MetricsJSON, 0o644); err != nil {
		return err
	}
	fmt.Println("flight-recorder gate (DP all-reduce + hierarchical MoE all-to-all + kill/reform/revive, 2×4 GPUs, oversubscribed fabric)")
	for _, s := range res.Summary {
		fmt.Println("  " + s)
	}
	fmt.Printf("wrote %s (%d bytes) and %s (%d bytes); open trace.json in chrome://tracing or https://ui.perfetto.dev\n",
		tracePath, len(res.TraceJSON), metricsPath, len(res.MetricsJSON))
	return nil
}

func figCluster(opts) error {
	rows, err := bench.ClusterGate()
	if err != nil {
		return err
	}
	fmt.Println("multi-tenant cluster gate (bursty low-pri wave + high-pri shorties, 2×4 GPUs, oversubscribed shared fabric, 1 slot/GPU)")
	for _, r := range rows {
		fmt.Println("  " + r.String())
	}
	fmt.Println("cluster gates passed: every job bit-identical to its solo run, priority beats FIFO on high-priority p99,")
	fmt.Println("pool reused across tenant churn, kill-induced requeue recommitted bit-identically, zero goroutines leaked")
	return nil
}

func figChaos(o opts) error {
	rows, err := bench.Chaos(o.iters)
	fmt.Printf("chaos gate: seeded kill/revive schedules against live elastic workloads (%d iterations each)\n", o.iters)
	for _, r := range rows {
		fmt.Println("  " + r.String())
	}
	if err != nil {
		return err
	}
	fmt.Println("chaos gates passed: every fault a typed abort or clean re-form, zero hangs, all scenarios bit-identical to the fault-free reference")
	return nil
}
