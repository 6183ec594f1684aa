// Package bench is the experiment harness: every table, figure and
// gate of the evaluation — the paper's (Table 1, §2.1, §6.1, Figs.
// 7–13) and the repository's own — is one row of Experiments.
//
// A row's Run is measure → print → check: it runs the experiment at
// the scale Opts asks for, writes the figure's text (the paper's value
// beside the reproduced one, where the paper gives one) to w, and
// returns the gate's verdict as its error. cmd/trainbench is flag
// parsing over this table and TestExperiments runs every row at its
// Smoke arguments, so `go test ./internal/bench` enforces what the
// command exits non-zero on.
//
// To add an experiment: write `func figX(w io.Writer, o Opts) error`
// beside the code it measures, add its row below (a name, one line of
// Doc, the default -iters or 0 if it takes none, the fastest arguments
// that still exercise it as Smoke), list `-fig <name>` in TESTING.md's
// artifact table, and commit what `trainbench -fig <name> <Smoke>`
// prints as testdata/golden/<name>.txt.
package bench

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"dfccl/internal/mem"
	"dfccl/internal/prim"
)

// Opts are cmd/trainbench's flags, as a row sees them: Iters is
// already the row's default when the flag was not given, and check has
// passed.
type Opts struct {
	Iters, Trials int
	Out           string
	Seed          int64
	Filter        string
	BigRounds     int
	Coll          string
	GPUs          int
	Min, Max      int
}

// Flags defines the option flags on fs with o as their destination;
// the flag defaults are the experiments' paper-scale arguments.
func (o *Opts) Flags(fs *flag.FlagSet) {
	fs.IntVar(&o.Iters, "iters", 0, "iterations: training iterations, measured runs per size (8*, 9), program repetitions (sec61*), rounds per configuration (table1); ≤ 0 = the row's default, ignored by rows without one")
	fs.IntVar(&o.Trials, "trials", 5, "disordered schedules in the moe/zero deadlock tally")
	fs.StringVar(&o.Out, "out", "", "output file of -fig collbench (default stdout) and -fig tune (default internal/tune/default_table.json); output directory of -fig trace (default .)")
	fs.Int64Var(&o.Seed, "seed", 7, "seed of the per-GPU launch orders of -fig sec61*")
	fs.StringVar(&o.Filter, "filter", "", "-fig table1: run only the configurations whose name contains this")
	fs.IntVar(&o.BigRounds, "big-rounds", 200, "-fig table1: rounds for the 3072-GPU configurations (0 = same as -iters)")
	fs.StringVar(&o.Coll, "coll", "all-reduce", fmt.Sprintf("-fig 8: collective, one of %v", collKinds))
	fs.IntVar(&o.GPUs, "gpus", 8, "-fig 8: GPUs (≤ 8: one server; > 8: 8-GPU nodes)")
	fs.IntVar(&o.Min, "min", 512, "-fig 8: smallest buffer in bytes")
	fs.IntVar(&o.Max, "max", 4<<20, "-fig 8: largest buffer in bytes")
}

// check rejects the values no row can run with — the one place flag
// values are validated, before any row sees them. (-iters needs no
// check: anything below 1 is the row's default.)
func (o Opts) check() error {
	switch {
	case o.Trials < 0:
		return fmt.Errorf("-trials %d: must be ≥ 0", o.Trials)
	case o.GPUs < 1:
		return fmt.Errorf("-gpus %d: must be ≥ 1", o.GPUs)
	case o.Min < 1:
		return fmt.Errorf("-min %d: must be ≥ 1 (the sweep doubles it up to -max)", o.Min)
	case o.Min > o.Max:
		return fmt.Errorf("-min %d is above -max %d", o.Min, o.Max)
	}
	kind, err := parseKind(o.Coll)
	if err != nil || kind != prim.ReduceScatter {
		return err
	}
	// A reduce-scatter gives every rank an equal share of the count. The
	// count truncates bytes/4, so a -min that is not a multiple of 4 can
	// pass at -min and fail at a doubling: every swept size is checked.
	n := fig8Cluster(o.GPUs).Size()
	for _, b := range SizeSweep(o.Min, o.Max) {
		if count := b / mem.Float32.Size(); count%n != 0 {
			return fmt.Errorf("-gpus %d: -coll reduce-scatter needs each buffer's float32 count to divide among the %d ranks, and %s holds %d",
				o.GPUs, n, HumanBytes(b), count)
		}
	}
	return nil
}

// Experiment is one row: a -fig value.
type Experiment struct {
	// Name is the -fig value; Doc is its line of `-fig help`.
	Name, Doc string
	// Iters is the default -iters (0: the row takes none).
	Iters int
	// Smoke is the reduced-scale command line TestExperiments runs the
	// row with (in a temporary directory, if it names an -out).
	Smoke string
	// Run measures, prints the figure to w and returns the gate's
	// verdict: a non-nil error makes trainbench exit non-zero.
	Run func(w io.Writer, o Opts) error
}

// Experiments is every artifact the repository reproduces and every
// gate it enforces, in `-fig help` order.
var Experiments = []Experiment{
	{"table1", "deadlock ratios of the single-queue and synchronization decision models over 3D and free GPU grouping (paper Table 1); -iters is rounds per configuration, -big-rounds those of the 3072-GPU (8,6,64) ones, -filter a name substring such as 'sq-free(1,8)'", 32000, "-iters 100 -filter sq-free(1,8)", figTable1},
	{"sec21", "NCCL vs host-staged CUDA-aware-MPI all-reduce, 32K–4M on eight 3090s (paper Sec. 2.1)", 0, "", figSec21},
	{"sec61", "deadlock-prevention program 1 on DFCCL: eight GPUs launch eight all-reduces, each GPU in its own -seed order (paper Sec. 6.1)", 200, "-iters 2", figSec61},
	{"sec61-sync", "program 2: program 1 with cudaDeviceSynchronize after every launch (paper Sec. 6.1)", 200, "-iters 2", figSec61Sync},
	{"sec61-nccl", "program 1 on the single-stream NCCL baseline, which deadlocks (paper Sec. 6.1, Fig. 1(c))", 200, "-iters 2", figSec61NCCL},
	{"7", "workload-independent overheads: daemon-kernel time components, CQE write per CQ implementation, context switch, memory footprint (paper Fig. 7, Sec. 6.2), plus communicator-pool churn", 0, "", fig7},
	{"8a", "broadcast bandwidth/latency sweep, 8×3080Ti, DFCCL vs NCCL (paper Fig. 8(a))", 5, "-iters 1", fig8a},
	{"8b", "all-reduce sweep, 8×3090 (paper Fig. 8(b))", 5, "-iters 1", fig8b},
	{"8c", "all-reduce sweep, 32 GPUs on four nodes, 2K–16M (paper Fig. 8(c))", 5, "-iters 1", fig8c},
	{"8", "custom Fig. 8-style sweep: -coll over -gpus from -min to -max bytes", 5, "-iters 1", fig8},
	{"9", "all-gather case study at 4K and 4M: end-to-end latency vs core execution time (paper Fig. 9)", 5, "-iters 1", fig9},
	{"10", "ResNet50 data parallelism under four orchestration methods (paper Fig. 10)", 200, "-iters 1", fig10},
	{"11", "adaptive vs naive spin-threshold case study (paper Fig. 11)", 3, "-iters 1", fig11},
	{"12", "ViT under DP / TP / 3D-hybrid parallelism (paper Fig. 12)", 50, "-iters 1", fig12},
	{"13", "GPT-2 under 3D-hybrid parallelism (paper Fig. 13)", 200, "-iters 1", fig13},
	{"ablations", "lazy context saving, daemon quit period, FIFO vs priority ordering, batched SQE read (DESIGN.md's called-out design choices)", 0, "", figAblations},
	{"moe", "MoE expert parallelism: all-to-all(v) dispatch/combine, dynamic expert groups, deadlock ratio vs NCCL; gates: all-to-all-v bit-identical to the padded reference with fewer bytes, dfccl never deadlocks and nccl-singlestream always does", 20, "-iters 2 -trials 1", figMoE},
	{"zero", "ZeRO/FSDP sharded data parallelism, stages 1-3, stage-3 churn, deadlock ratio vs NCCL; gate: dfccl never deadlocks, nccl-singlestream does", 20, "-iters 2 -trials 1", figZeRO},
	{"a2a", "all-to-all algorithm sweep (ring vs hierarchical across node counts and skew) and shared-fabric congestion sweep, both through one gate: outputs bit-identical, hierarchical RDMA bytes below the ring's, and on oversubscribed fabrics spine contention visible and the hierarchical advantage monotone", 0, "", figA2A},
	{"chaos", "fault-injection gate: seeded kill/revive schedules against live DP, MoE and ZeRO workloads", 6, "-iters 5", figChaos},
	{"cluster", "multi-tenant cluster gate: bursty heterogeneous jobs under FIFO / priority / bin-packing admission (bench.ClusterGate)", 0, "", figCluster},
	{"ar", "auto-tuning gate: ring vs hierarchical vs auto for all-reduce / all-gather / reduce-scatter", 0, "", figAR},
	{"tune", "regenerate the auto-tuning table to -out (default internal/tune/default_table.json); a re-run is a no-op diff", 0, "-out default_table.json", figTune},
	{"collbench", "the full benchmark matrix as JSON to -out (default stdout); `make bench` writes BENCH.json", 0, "-out BENCH.json", figCollBench},
	{"trace", "flight-recorder gate: DP + hierarchical MoE + kill/reform/revive with the recorder installed; writes trace.json and metrics.json into -out (default .)", 0, "-out .", figTrace},
}

// Names lists the -fig values, comma-separated.
func Names() string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return strings.Join(names, ", ")
}

// Run is `trainbench -fig name` with options o: it validates o, gives
// the row its default -iters, and runs it. "help" prints the table.
func Run(w io.Writer, name string, o Opts) error {
	if name == "help" {
		for _, e := range Experiments {
			fmt.Fprintf(w, "-fig %-10s %s", e.Name, e.Doc)
			if e.Iters > 0 {
				fmt.Fprintf(w, " [default -iters %d]", e.Iters)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	for _, e := range Experiments {
		if e.Name != name {
			continue
		}
		if err := o.check(); err != nil {
			return err
		}
		if o.Iters <= 0 {
			o.Iters = e.Iters
		}
		return e.Run(w, o)
	}
	return fmt.Errorf("unknown -fig %q (have %s; -fig help describes them)", name, Names())
}
