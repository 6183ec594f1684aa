// Command trainbench regenerates the DNN-training evaluation:
//
//	-fig 10   ResNet50 data parallelism, four orchestration methods
//	-fig 11   adaptive vs naive spin-threshold case study
//	-fig 12   ViT under DP / TP / 3D-hybrid parallelism
//	-fig 13   GPT-2 under 3D-hybrid parallelism
//	-fig moe  MoE expert parallelism: AllToAll dispatch/combine,
//	          dynamic expert groups, deadlock ratio vs NCCL
//	-fig zero ZeRO/FSDP sharded data parallelism, stages 1-3,
//	          stage-3 churn, deadlock ratio vs NCCL
//	-fig a2a  Fig. 8-style all-to-all algorithm sweep: flat ring vs
//	          hierarchical (topology-aware) across node counts and
//	          skew, with per-transport wire bytes and a bit-identical
//	          output check, followed by the shared-fabric congestion
//	          sweep (per-tier link utilization, oversubscription
//	          gates)
//	-fig a2abench
//	          machine-readable all-to-all benchmark matrix (sizes ×
//	          algorithms × shapes × fabrics, plus a chaos-overhead
//	          column) written as JSON to -out (a subset of the
//	          full matrix; see -fig collbench)
//	-fig chaos
//	          fault-injection gate: seeded kill/revive schedules
//	          against live DP, MoE, and ZeRO workloads; exits non-zero
//	          unless every fault surfaces as a typed ErrRankLost abort
//	          or a clean re-formation, with zero hangs and post-reform
//	          training bit-identical to the fault-free reference
//	-fig cluster
//	          multi-tenant cluster gate: a bursty trace of
//	          heterogeneous jobs (DP/MoE/ZeRO/hybrid) contending for
//	          one fabric under FIFO / priority / bin-packing admission;
//	          exits non-zero unless every job is bit-identical to its
//	          solo run (pure reference and actual re-run), the priority
//	          policy beats FIFO on high-priority p99 sojourn, a
//	          mid-run kill requeues cleanly, and zero goroutines leak
//	-fig ar   auto-tuning gate: ring vs hierarchical vs auto for
//	          all-reduce / all-gather / reduce-scatter across shapes
//	          and sizes; exits non-zero unless every auto pick matches
//	          the per-cell winner within tolerance with bit-identical
//	          outputs
//	-fig tune regenerates the committed auto-tuning table
//	          (bench.TuneSweep) and writes it to -out (default
//	          internal/tune/default_table.json); deterministic, so a
//	          regeneration must be a no-op diff
//	-fig collbench
//	          the full-collective benchmark matrix: the a2abench and
//	          chaos cells plus allreduce/allgather/reducescatter ×
//	          sizes × ring/hierarchical/auto × shapes × fabrics and the
//	          tracing-overhead cells, written as JSON to -out
//	          (`make bench` → BENCH.json)
//	-fig trace
//	          flight-recorder gate: runs the DP + hierarchical-MoE +
//	          chaos scenario with the full-depth recorder installed and
//	          writes trace.json (Chrome/Perfetto; load via
//	          chrome://tracing or https://ui.perfetto.dev) and
//	          metrics.json (canonical registry dump) next to -out (or
//	          the working directory); exits non-zero unless
//	          trace-derived byte totals exactly match the executors'
//	          per-transport accounting, span counts match the executed
//	          primitives, the kill left abort+reform marks, and
//	          regeneration is byte-identical
//
// Iteration counts default to paper-scale (200) for -fig 10/13; use
// -iters to reduce for quick runs. -trials sets the disordered-
// schedule count of the moe/zero deadlock-ratio tallies.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dfccl/internal/bench"
	"dfccl/internal/fabric"
	"dfccl/internal/prim"
)

func main() {
	fig := flag.String("fig", "10", "figure to regenerate: 10, 11, 12, 13, moe, zero, a2a, a2abench, chaos, ar, tune, collbench, trace, or cluster")
	iters := flag.Int("iters", 0, "training iterations (0 = figure default)")
	trials := flag.Int("trials", 5, "disordered trials for the moe/zero deadlock tally")
	out := flag.String("out", "", "output file for -fig a2abench/collbench (default stdout), -fig tune (default internal/tune/default_table.json), and the directory for -fig trace artifacts (default .)")
	flag.Parse()

	switch *fig {
	case "10":
		n := defaultIters(*iters, 200)
		rows, err := bench.Fig10(n)
		check(err)
		fmt.Printf("ResNet50 data-parallel training throughput (samples/s, %d iterations)\n", n)
		paper := map[string]float64{
			"3080ti/oneflow-static": 442.7, "3080ti/dfccl": 447.9, "3080ti/kungfu": 372.1, "3080ti/horovod": 366.2,
			"3090/oneflow-static": 507.7, "3090/dfccl": 508.4, "3090/kungfu": 419.1, "3090/horovod": 415.6,
		}
		for _, r := range rows {
			key := r.Server + "/" + r.Backend
			fmt.Printf("  %-24s %8.1f   (paper: %.1f)\n", key, r.Throughput, paper[key])
		}
	case "11":
		n := defaultIters(*iters, 3)
		naive, adaptive, err := bench.Fig11(n)
		check(err)
		for _, r := range []bench.Fig11Result{naive, adaptive} {
			fmt.Printf("policy=%s throughput=%.1f samples/s  max-ctx-switches=%d  max-queue-len=%d\n",
				r.Policy, r.Throughput, r.MaxCtx, r.MaxQueueLen)
		}
		fmt.Println("(paper: naive policy spikes to hundreds of context switches and queue length ~25,")
		fmt.Println(" dropping throughput from >500 to <100; the adaptive policy eliminates the spikes)")
	case "12":
		n := defaultIters(*iters, 50)
		rows, err := bench.Fig12(n)
		check(err)
		fmt.Printf("ViT training throughput (samples/s, %d iterations)\n", n)
		for _, r := range rows {
			diff := 100 * (r.DFCCL - r.NCCL) / r.NCCL
			fmt.Printf("  %-16s nccl=%8.1f dfccl=%8.1f  (%+.1f%%; paper: within ±3%% to +8.6%%)\n",
				r.Name, r.NCCL, r.DFCCL, diff)
		}
	case "13":
		n := defaultIters(*iters, 200)
		rows, err := bench.Fig13(n)
		check(err)
		fmt.Printf("GPT-2 per-iteration training time (ms, %d iterations)\n", n)
		for _, r := range rows {
			diff := 100 * (r.DFCCLIterMS - r.NCCLIterMS) / r.NCCLIterMS
			fmt.Printf("  %-12s nccl=%8.1fms (CoV %.1f%%)  dfccl=%8.1fms (CoV %.1f%%)  (%+.1f%%; paper: within ±4%%)\n",
				r.Name, r.NCCLIterMS, 100*r.NCCLCoV, r.DFCCLIterMS, 100*r.DFCCLCoV, diff)
		}
	case "moe":
		n := defaultIters(*iters, 20)
		rows, dispatch, tally, err := bench.MoE(n, *trials)
		check(err)
		fmt.Printf("MoE expert parallelism (4 experts, top-2 skewed routing, dynamic groups, %d iterations)\n", n)
		for _, r := range rows {
			fmt.Printf("  %-20s %10.1f tokens/s   communicators created: %d   alltoall payload: %s\n",
				r.Backend, r.Throughput, r.CommsCreated, bench.HumanBytes(int(r.A2ABytes)))
		}
		fmt.Printf("dispatch bytes moved under the skewed router: padded all-to-all %s, all-to-all-v %s (-%.1f%%)\n",
			bench.HumanBytes(int(dispatch.PaddedBytes)), bench.HumanBytes(int(dispatch.RaggedBytes)), 100*dispatch.Savings())
		fmt.Printf("combined token outputs bit-identical to the padded reference: %v\n", dispatch.BitIdentical)
		if !dispatch.BitIdentical {
			check(fmt.Errorf("all-to-all-v outputs diverged from the padded reference"))
		}
		if dispatch.RaggedBytes >= dispatch.PaddedBytes {
			check(fmt.Errorf("all-to-all-v moved %d bytes, padded reference %d: no savings under skew",
				dispatch.RaggedBytes, dispatch.PaddedBytes))
		}
		fmt.Printf("deadlock ratio over %d disordered schedules: dfccl %.2f, nccl-singlestream %.2f\n",
			tally.Trials, tally.Ratio(true), tally.Ratio(false))
		if tally.Ratio(true) == 0 && tally.Ratio(false) == 1 {
			fmt.Println("(dfccl reuses pooled communicators across expert-group churn and absorbs the disorder;")
			fmt.Println(" single-stream NCCL deadlocks on every disordered schedule, as in the paper's Fig. 1)")
		}
	case "zero":
		n := defaultIters(*iters, 20)
		rows, tally, err := bench.ZeRO(n, *trials)
		check(err)
		fmt.Printf("ZeRO/FSDP sharded data parallelism (4 ranks, %d iterations; results verified vs unsharded reference)\n", n)
		for _, r := range rows {
			extra := ""
			if r.CommsCreated > 0 {
				extra = fmt.Sprintf("   communicators created: %d (flat under churn)", r.CommsCreated)
			}
			fmt.Printf("  stage %d %-16s %10.1f samples/s%s\n", r.Stage, r.Backend, r.Throughput, extra)
		}
		fmt.Printf("deadlock ratio over %d disordered stage-2 schedules: dfccl %.2f, nccl-singlestream %.2f\n",
			tally.Trials, tally.Ratio(true), tally.Ratio(false))
	case "a2a":
		rows, err := bench.AllToAllAlgoSweep()
		check(err)
		fmt.Println("all-to-all algorithm sweep (real-data AllToAllv, ring vs hierarchical; bytes are total wire traffic incl. forwarding hops)")
		for _, r := range rows {
			fmt.Println("  " + r.String())
		}
		// Enforce the sweep's claims: identical outputs everywhere;
		// strictly fewer RDMA bytes for hierarchical on multi-node
		// shapes; zero RDMA on one node.
		type cell struct {
			nodes int
			skew  string
			algo  prim.Algorithm
		}
		byKey := map[cell]bench.A2ARow{}
		for _, r := range rows {
			if !r.BitIdentical {
				check(fmt.Errorf("%d-node %s: hierarchical outputs diverged from the ring", r.Nodes, r.Skew))
			}
			byKey[cell{r.Nodes, r.Skew, r.Algo}] = r
		}
		for _, r := range rows {
			if r.Algo != prim.AlgoHierarchical {
				continue
			}
			ring := byKey[cell{r.Nodes, r.Skew, prim.AlgoRing}]
			switch {
			case r.Nodes == 1 && r.RDMABytes != 0:
				check(fmt.Errorf("1-node %s: hierarchical moved %d RDMA bytes, want 0", r.Skew, r.RDMABytes))
			case r.Nodes > 1 && r.RDMABytes >= ring.RDMABytes:
				check(fmt.Errorf("%d-node %s: hierarchical RDMA bytes %d not below ring's %d",
					r.Nodes, r.Skew, r.RDMABytes, ring.RDMABytes))
			}
		}
		fmt.Println("hierarchical outputs bit-identical to the ring on every shape; RDMA bytes strictly lower on multi-node shapes")
		runContentionSweep()
	case "a2abench":
		cells, err := bench.A2ABenchMatrix()
		check(err)
		buf, err := json.MarshalIndent(cells, "", "  ")
		check(err)
		buf = append(buf, '\n')
		if *out == "" {
			_, err = os.Stdout.Write(buf)
		} else {
			err = os.WriteFile(*out, buf, 0o644)
		}
		check(err)
	case "collbench":
		cells, err := bench.FullBenchMatrix()
		check(err)
		buf, err := json.MarshalIndent(cells, "", "  ")
		check(err)
		buf = append(buf, '\n')
		if *out == "" {
			_, err = os.Stdout.Write(buf)
		} else {
			err = os.WriteFile(*out, buf, 0o644)
		}
		check(err)
	case "tune":
		tbl, err := bench.TuneSweep()
		check(err)
		buf, err := tbl.Marshal()
		check(err)
		path := *out
		if path == "" {
			path = "internal/tune/default_table.json"
		}
		check(os.WriteFile(path, buf, 0o644))
		fmt.Printf("tuning table regenerated: %d rows -> %s\n", len(tbl.Rows), path)
	case "ar":
		rows, ok, err := bench.AutoAlgoGate()
		check(err)
		fmt.Println("auto-tuning gate (ring vs hierarchical vs auto; auto resolved from the committed tuning table)")
		for _, r := range rows {
			fmt.Println("  " + r.String())
		}
		if !ok {
			check(fmt.Errorf("auto pick missed the per-cell winner (or outputs diverged) in at least one cell"))
		}
		fmt.Println("auto gate passed: every auto pick matched the per-cell winner within tolerance, outputs bit-identical to the ring")
	case "trace":
		res, err := bench.TraceFig()
		check(err)
		dir := *out
		if dir == "" {
			dir = "."
		}
		tracePath := filepath.Join(dir, "trace.json")
		metricsPath := filepath.Join(dir, "metrics.json")
		check(os.WriteFile(tracePath, res.TraceJSON, 0o644))
		check(os.WriteFile(metricsPath, res.MetricsJSON, 0o644))
		fmt.Println("flight-recorder gate (DP all-reduce + hierarchical MoE all-to-all + kill/reform/revive, 2×4 GPUs, oversubscribed fabric)")
		for _, s := range res.Summary {
			fmt.Println("  " + s)
		}
		fmt.Printf("wrote %s (%d bytes) and %s (%d bytes); open trace.json in chrome://tracing or https://ui.perfetto.dev\n",
			tracePath, len(res.TraceJSON), metricsPath, len(res.MetricsJSON))
	case "cluster":
		rows, err := bench.ClusterGate()
		check(err)
		fmt.Println("multi-tenant cluster gate (bursty low-pri wave + high-pri shorties, 2×4 GPUs, oversubscribed shared fabric, 1 slot/GPU)")
		for _, r := range rows {
			fmt.Println("  " + r.String())
		}
		fmt.Println("cluster gates passed: every job bit-identical to its solo run, priority beats FIFO on high-priority p99,")
		fmt.Println("pool reused across tenant churn, kill-induced requeue recommitted bit-identically, zero goroutines leaked")
	case "chaos":
		n := defaultIters(*iters, 6)
		rows, err := bench.Chaos(n)
		fmt.Printf("chaos gate: seeded kill/revive schedules against live elastic workloads (%d iterations each)\n", n)
		for _, r := range rows {
			fmt.Println("  " + r.String())
		}
		check(err)
		fmt.Println("chaos gates passed: every fault a typed abort or clean re-form, zero hangs, all scenarios bit-identical to the fault-free reference")
	default:
		check(fmt.Errorf("unknown -fig %q", *fig))
	}
}

// runContentionSweep runs and gates the shared-fabric congestion sweep
// appended to -fig a2a: the same exchanges priced on an oversubscribed
// shared fabric, with per-tier link utilization printed next to the
// per-transport byte split. It exits non-zero if spine contention is
// invisible at 4 nodes with oversubscription above 1, if the
// overlapping inter-leader flows are not slower than the isolated-sum
// prediction, if the hierarchical advantage is not monotone in the
// oversubscription factor, or if any output diverges bit-wise.
func runContentionSweep() {
	oversubs := []float64{1, 2, 4}
	fmt.Println()
	fmt.Println("congestion sweep (shared fabric, leaf+spine oversubscription F; 4×4 GPUs, bandwidth-dominated blocks)")
	rows, err := bench.AllToAllContentionSweep(oversubs)
	check(err)
	ringE2E := map[[2]string]float64{}
	for _, r := range rows {
		fmt.Println("  " + r.String())
		line := "      tiers:"
		for _, t := range r.Tiers {
			line += fmt.Sprintf("  %v peak=%.2f sat=%v", t.Tier, t.PeakUtil, t.Saturated)
		}
		fmt.Println(line)
		if !r.BitIdentical {
			check(fmt.Errorf("F=%g %s %v: outputs diverged from the unshared/ring reference", r.Oversub, r.Skew, r.Algo))
		}
		key := [2]string{r.Skew, fmt.Sprint(r.Oversub)}
		if r.Algo == prim.AlgoRing {
			ringE2E[key] = float64(r.E2E)
			continue
		}
		// Inter-leader gates on the hierarchical rows: its leader ring is
		// exactly the overlapping-flows scenario the fabric must price.
		if r.Oversub > 1 {
			if r.E2E <= r.UnsharedE2E {
				check(fmt.Errorf("F=%g %s: spine contention invisible — shared e2e %v not above isolated-sum %v",
					r.Oversub, r.Skew, r.E2E, r.UnsharedE2E))
			}
			spineSat := false
			for _, t := range r.Tiers {
				if t.Tier == fabric.TierSpine && t.Saturated > 0 {
					spineSat = true
				}
			}
			if !spineSat {
				check(fmt.Errorf("F=%g %s: spine never saturated under overlapping inter-leader flows", r.Oversub, r.Skew))
			}
		}
	}
	// Monotone-advantage gate: the hierarchical algorithm's edge over the
	// ring (ring e2e − hier e2e) must grow with the oversubscription
	// factor — it crosses the tapered core with fewer bytes, so every
	// increase of F widens its margin.
	for _, skew := range []string{"uniform", "hot-row"} {
		prev := 0.0
		for i, f := range oversubs {
			var adv float64
			for _, r := range rows {
				if r.Skew == skew && r.Oversub == f && r.Algo == prim.AlgoHierarchical {
					adv = ringE2E[[2]string{skew, fmt.Sprint(f)}] - float64(r.E2E)
				}
			}
			fmt.Printf("  %-8s F=%-3g hierarchical advantage over ring: %+.0fus\n", skew, f, adv/1000)
			if i > 0 && adv <= prev {
				check(fmt.Errorf("%s: hierarchical advantage not monotone in oversubscription: F=%g gives %+.0fus after %+.0fus",
					skew, f, adv/1000, prev/1000))
			}
			prev = adv
		}
	}
	fmt.Println("contention gates passed: spine visible at F>1, inter-leader flows above isolated-sum, advantage monotone, outputs bit-identical")
}

func defaultIters(flagVal, def int) int {
	if flagVal > 0 {
		return flagVal
	}
	return def
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainbench:", err)
		os.Exit(1)
	}
}
