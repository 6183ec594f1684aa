package bench

import (
	"fmt"
	"io"
	"math/rand"

	"dfccl/internal/orch"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/train"
)

// deadlockGate is the moe and zero rows' claim on a tally of trials
// disordered schedules: DFCCL deadlocks on none of them, and the
// single-stream NCCL baseline on every one (all) or, given any trial,
// on at least one.
func deadlockGate(trials, dfccl, baseline int, all bool) error {
	switch {
	case dfccl > 0:
		return fmt.Errorf("dfccl deadlocked on %d of %d disordered schedules", dfccl, trials)
	case all && baseline != trials:
		return fmt.Errorf("nccl-singlestream deadlocked on only %d of %d disordered schedules", baseline, trials)
	case trials > 0 && baseline == 0:
		return fmt.Errorf("nccl-singlestream survived all %d disordered schedules: the scenario exercises nothing", trials)
	}
	return nil
}

// deadlockTally runs trials disordered schedules on DFCCL and on
// single-stream NCCL (failed reports whether trial k ended in an error
// on the named backend), prints each side's deadlock ratio over the
// named schedules and returns deadlockGate's verdict.
func deadlockTally(w io.Writer, schedules string, trials int, all bool, failed func(k int, backend string) bool) error {
	var dfccl, baseline int
	for k := 0; k < trials; k++ {
		if failed(k, "dfccl") {
			dfccl++
		}
		if failed(k, "nccl-singlestream") {
			baseline++
		}
	}
	ratio := func(n int) float64 {
		if trials == 0 {
			return 0
		}
		return float64(n) / float64(trials)
	}
	fmt.Fprintf(w, "deadlock ratio over %d disordered %s: dfccl %.2f, nccl-singlestream %.2f\n",
		trials, schedules, ratio(dfccl), ratio(baseline))
	return deadlockGate(trials, dfccl, baseline, all)
}

const moeBenchRanks = 4

func moeBenchConfig(iters int) train.MoEConfig {
	return train.MoEConfig{
		Ranks: moeBenchRanks, TokensPerRank: 16, ElemsPerToken: 8, TopK: 2,
		Iterations: iters, DenseGradElems: 4096,
	}
}

// runMoE runs cfg on a fresh backend of the given name over four 3090s.
func runMoE(backend string, cfg train.MoEConfig) (*train.Result, orch.Backend, error) {
	cluster := topo.Server3090(moeBenchRanks)
	e, b := newBackend(backend, cluster)
	res, err := train.RunMoE(e, cluster, b, cfg)
	return res, b, err
}

// figMoE runs the Mixture-of-Experts expert-parallel scenario (top-2
// skewed routing, AllToAllv dispatch/combine, dynamic expert groups,
// dense-gradient all-reduce) with real token data, verified exactly in
// every run. Its gates: every backend moves the same all-to-all payload
// and DFCCL's pooled communicators number no more than single-stream
// NCCL's; a capacity-padded AllToAll reference on DFCCL hashes its
// combined outputs identically while moving strictly more bytes; and
// over disordered schedules (one per iteration count 1..trials) DFCCL
// never deadlocks while single-stream NCCL always does.
func figMoE(w io.Writer, o Opts) error {
	fmt.Fprintf(w, "MoE expert parallelism (4 experts, top-2 skewed routing, dynamic groups, %d iterations)\n", o.Iters)
	cfg := moeBenchConfig(o.Iters)
	cfg.DynamicGroups = true // churn is the point of the scenario
	var ragged *train.Result
	comms := map[string]int{}
	for _, name := range []string{"dfccl", "nccl-staticsort", "nccl-singlestream"} {
		res, b, err := runMoE(name, cfg)
		if err != nil {
			return fmt.Errorf("moe %s: %w", name, err)
		}
		comms[name] = b.CommsCreated()
		fmt.Fprintf(w, "  %-20s %10.1f tokens/s   communicators created: %d   alltoall payload: %s\n",
			name, res.Throughput, comms[name], HumanBytes(int(res.A2ABytes)))
		if ragged == nil {
			ragged = res
		}
		if res.A2ABytes != ragged.A2ABytes {
			return fmt.Errorf("moe %s moved %d all-to-all bytes, dfccl %d: the payload depends on the backend", name, res.A2ABytes, ragged.A2ABytes)
		}
	}
	if comms["dfccl"] > comms["nccl-singlestream"] {
		return fmt.Errorf("dfccl created %d communicators, nccl-singlestream %d: the pool did not absorb the churn",
			comms["dfccl"], comms["nccl-singlestream"])
	}

	cfg.PaddedAllToAll = true
	padded, _, err := runMoE("dfccl", cfg)
	if err != nil {
		return fmt.Errorf("moe padded reference: %w", err)
	}
	fmt.Fprintf(w, "dispatch bytes moved under the skewed router: padded all-to-all %s, all-to-all-v %s (-%.1f%%)\n",
		HumanBytes(int(padded.A2ABytes)), HumanBytes(int(ragged.A2ABytes)), 100*(1-float64(ragged.A2ABytes)/float64(padded.A2ABytes)))
	identical := padded.OutputHash == ragged.OutputHash
	fmt.Fprintf(w, "combined token outputs bit-identical to the padded reference: %v\n", identical)
	if !identical {
		return fmt.Errorf("all-to-all-v outputs diverged from the padded reference")
	}
	if ragged.A2ABytes >= padded.A2ABytes {
		return fmt.Errorf("all-to-all-v moved %d bytes, padded reference %d: no savings under skew",
			ragged.A2ABytes, padded.A2ABytes)
	}

	err = deadlockTally(w, "schedules", o.Trials, true, func(k int, backend string) bool {
		cfg := moeBenchConfig(k + 1) // each trial is a distinct schedule
		cfg.Disorder = true
		_, _, err := runMoE(backend, cfg)
		return err != nil
	})
	if err != nil || o.Trials == 0 {
		return err
	}
	fmt.Fprintln(w, "(dfccl reuses pooled communicators across expert-group churn and absorbs the disorder;")
	fmt.Fprintln(w, " single-stream NCCL deadlocks on every disordered schedule, as in the paper's Fig. 1)")
	return nil
}

const zeroBenchRanks = 4

// zeroBenchModel is a mid-sized layer stack for the ZeRO scenario.
func zeroBenchModel() train.Model {
	var layers []train.Layer
	for i, elems := range []int{2048, 4096, 4096, 8192, 1024} {
		layers = append(layers, train.Layer{
			Name: fmt.Sprintf("l%d", i), GradElems: elems,
			FwdPerSample: 40 * sim.Microsecond, BwdPerSample: 80 * sim.Microsecond,
		})
	}
	return train.Model{Name: "zero-bench", Layers: layers}
}

// runZeRO runs cfg on a fresh backend of the given name over four 3090s.
func runZeRO(backend string, cfg train.ZeROConfig) (*train.Result, orch.Backend, error) {
	cluster := topo.Server3090(zeroBenchRanks)
	e, b := newBackend(backend, cluster)
	res, err := train.RunZeRO(e, cluster, b, cfg)
	return res, b, err
}

// figZeRO runs ZeRO/FSDP sharded data parallelism (stages 1-3:
// per-layer gradient AllReduce/ReduceScatter + parameter AllGather,
// sharded momentum) on DFCCL and multi-stream NCCL, and a stage-3
// open/close churn run on DFCCL; every run verifies sharded parameters
// and optimizer state bit-for-bit against the unsharded reference. Its
// gate: over seeded disordered stage-2 schedules DFCCL never deadlocks
// and single-stream NCCL deadlocks at least once.
func figZeRO(w io.Writer, o Opts) error {
	fmt.Fprintf(w, "ZeRO/FSDP sharded data parallelism (4 ranks, %d iterations; results verified vs unsharded reference)\n", o.Iters)
	cfg := train.ZeROConfig{Model: zeroBenchModel(), Ranks: zeroBenchRanks, BatchPerGPU: 4, Iterations: o.Iters}
	for cfg.Stage = 1; cfg.Stage <= 3; cfg.Stage++ {
		for _, name := range []string{"dfccl", "nccl-staticsort"} {
			res, _, err := runZeRO(name, cfg)
			if err != nil {
				return fmt.Errorf("zero stage %d %s: %w", cfg.Stage, name, err)
			}
			fmt.Fprintf(w, "  stage %d %-16s %10.1f samples/s\n", cfg.Stage, name, res.Throughput)
		}
	}
	// Stage-3 churn on DFCCL: reopen every per-layer collective each
	// iteration; CommsCreated stays flat thanks to the pool.
	cfg.Stage, cfg.Churn = 3, true
	res, b, err := runZeRO("dfccl", cfg)
	if err != nil {
		return fmt.Errorf("zero stage 3 churn: %w", err)
	}
	fmt.Fprintf(w, "  stage 3 %-16s %10.1f samples/s   communicators created: %d (flat under churn)\n",
		"dfccl-churn", res.Throughput, b.CommsCreated())

	return deadlockTally(w, "stage-2 schedules", o.Trials, false, func(k int, backend string) bool {
		_, _, err := runZeRO(backend, zeroDisordered(k))
		return err != nil
	})
}

// zeroDisordered is trial k's disordered stage-2 schedule. Each call
// starts fresh RNG state, so both backends see the same permutations.
func zeroDisordered(k int) train.ZeROConfig {
	rngs := make([]*rand.Rand, zeroBenchRanks)
	for r := range rngs {
		rngs[r] = newSeededRNG(int64(1000*k + r))
	}
	return train.ZeROConfig{
		Model: zeroBenchModel(), Stage: 2, Ranks: zeroBenchRanks, BatchPerGPU: 1, Iterations: 2,
		Disorder: func(rank, iter int, order []int) {
			perm := rngs[rank].Perm(len(order))
			tmp := append([]int(nil), order...)
			for i, p := range perm {
				order[i] = tmp[p]
			}
		},
	}
}
