package bench

import (
	"errors"
	"fmt"
	"io"

	"dfccl/internal/chaos"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// chaosScenario is one fixed entry of the gate's fault matrix.
type chaosScenario struct {
	name                   string
	cfg                    chaos.Config
	wantReform, wantChange bool
}

// chaosScenarios builds the gate's fixed fault matrix: one scenario
// per elastic workload, covering a plain kill (DP), kill+revive under
// both MoE dispatch algorithms (single-node ring and two-node
// hierarchical), a kill+revive under DP with AlgoAuto on two nodes —
// where the tuning table resolves the gradient all-reduce to the
// hierarchical schedule and every re-formation re-resolves it over the
// surviving shape — and a double kill under ZeRO. Kills land mid-run
// (iterations take ≳150µs of compute each); revives arrive a few
// iterations later, forcing a second re-formation back to full
// strength.
func chaosScenarios(iters int) []chaosScenario {
	kill := 500 * sim.Microsecond
	second := kill + 400*sim.Microsecond
	return []chaosScenario{
		{
			name: "dp/kill",
			cfg: chaos.Config{
				Workload: "dp", Cluster: topo.Server3090(4), Ranks: []int{0, 1, 2, 3},
				Iterations: iters,
				Schedule:   chaos.Schedule{{At: kill, Kind: chaos.Kill, Rank: 2}},
			},
			wantChange: true,
		},
		{
			name: "moe-ring/kill+revive",
			cfg: chaos.Config{
				Workload: "moe", Cluster: topo.Server3090(4), Ranks: []int{0, 1, 2, 3},
				Iterations: iters, Algo: prim.AlgoRing,
				Schedule: chaos.Schedule{
					{At: kill, Kind: chaos.Kill, Rank: 1},
					{At: second, Kind: chaos.Revive, Rank: 1},
				},
			},
			wantReform: true, wantChange: true,
		},
		{
			name: "moe-hier/kill+revive",
			cfg: chaos.Config{
				Workload: "moe", Cluster: topo.MultiNode3090(2), Ranks: []int{0, 1, 8, 9},
				Iterations: iters, Algo: prim.AlgoHierarchical,
				Schedule: chaos.Schedule{
					{At: kill, Kind: chaos.Kill, Rank: 9},
					{At: second, Kind: chaos.Revive, Rank: 9},
				},
			},
			wantReform: true, wantChange: true,
		},
		{
			name: "dp-auto/kill+revive",
			cfg: chaos.Config{
				Workload: "dp", Cluster: topo.MultiNode3090(2), Ranks: []int{0, 1, 8, 9},
				Iterations: iters, Algo: prim.AlgoAuto,
				Schedule: chaos.Schedule{
					{At: kill, Kind: chaos.Kill, Rank: 9},
					{At: second, Kind: chaos.Revive, Rank: 9},
				},
			},
			wantReform: true, wantChange: true,
		},
		{
			name: "zero/double-kill",
			cfg: chaos.Config{
				Workload: "zero", Cluster: topo.Server3090(4), Ranks: []int{0, 1, 2, 3},
				Iterations: iters,
				Schedule: chaos.Schedule{
					{At: kill, Kind: chaos.Kill, Rank: 3},
					{At: second, Kind: chaos.Kill, Rank: 0},
				},
			},
			wantChange: true,
		},
	}
}

// chaosMinIters is the smallest -iters at which every scheduled event
// of every scenario lands before the last commit: the revive at 900µs
// needs a fifth iteration to re-form the group in. TestChaosMinIters
// holds it to the schedules.
const chaosMinIters = 5

// ErrTooFewIters rejects an -iters below what a row's fixed schedule
// needs, before the row runs — it is not a failed gate.
var ErrTooFewIters = errors.New("too few iterations")

// figChaos runs the fault-injection gate: a fixed matrix of kill/revive
// schedules against the elastic DP, MoE (ring and hierarchical
// dispatch, count matrix gathered at runtime), and ZeRO workloads. It
// returns an error — making `trainbench -fig chaos` exit non-zero —
// unless every scheduled fault surfaces as a typed ErrRankLost abort
// or a clean re-formation with zero hangs, a rerun of every scenario
// reproduces its timeline fingerprint, every committed iteration
// is bit-identical to the serial fault-free reference over its
// membership trajectory, and the MoE scenarios commit iterations on
// both sides of a membership change (routing survived the churn on
// runtime-gathered counts).
func figChaos(w io.Writer, o Opts) error {
	if o.Iters < chaosMinIters {
		return fmt.Errorf("%w: -iters %d, and the chaos schedules need ≥ %d for their last event to land mid-run",
			ErrTooFewIters, o.Iters, chaosMinIters)
	}
	fmt.Fprintf(w, "chaos gate: seeded kill/revive schedules against live elastic workloads (%d iterations each)\n", o.Iters)
	for _, sc := range chaosScenarios(o.Iters) {
		rep, err := chaos.Run(sc.cfg)
		fmt.Fprintf(w, "  %-28s attempts=%d kills=%d revives=%d typed-aborts=%d reforms=%d committed=%d bit-identical=%v\n",
			sc.name, rep.Attempts, rep.KillsApplied, rep.RevivesApplied, rep.AbortedAttempts, rep.InterruptedAttempts, rep.Committed, rep.BitIdentical)
		if err != nil {
			return fmt.Errorf("bench: chaos %s: %w", sc.name, err)
		}
		if again, err := chaos.Run(sc.cfg); err != nil || again.Fingerprint != rep.Fingerprint {
			return fmt.Errorf("bench: chaos %s: rerun gave timeline %#x (%v), first run %#x", sc.name, again.Fingerprint, err, rep.Fingerprint)
		}
		if rep.Hang {
			return fmt.Errorf("bench: chaos %s: hang", sc.name)
		}
		if !rep.BitIdentical || rep.Committed != sc.cfg.Iterations {
			return fmt.Errorf("bench: chaos %s: committed %d/%d, bit-identical=%v",
				sc.name, rep.Committed, sc.cfg.Iterations, rep.BitIdentical)
		}
		wantKills := 0
		for _, ev := range sc.cfg.Schedule {
			if ev.Kind == chaos.Kill {
				wantKills++
			}
		}
		if rep.KillsApplied != wantKills {
			return fmt.Errorf("bench: chaos %s: %d/%d kills applied", sc.name, rep.KillsApplied, wantKills)
		}
		if rep.AbortedAttempts < 1 || rep.TypedErrors < 1 {
			return fmt.Errorf("bench: chaos %s: kill never surfaced as a typed abort (%+v)", sc.name, rep)
		}
		if sc.wantReform && rep.RevivesApplied < 1 {
			return fmt.Errorf("bench: chaos %s: revive never re-formed the group (%+v)", sc.name, rep)
		}
		if sc.wantChange && !rep.MembershipChanged() {
			return fmt.Errorf("bench: chaos %s: committed trajectory never changed membership: %v", sc.name, rep.Trajectory)
		}
	}
	fmt.Fprintln(w, "chaos gates passed: every fault a typed abort or clean re-form, zero hangs, all scenarios bit-identical to the fault-free reference")
	return nil
}

// ChaosBenchCells prices the gate's fault matrix for the
// perf-trajectory snapshot: each scenario runs once with its schedule
// and once fault-free over the same config, and the difference in
// virtual runtime is the chaos-overhead column (aborted work plus
// re-formation cost). Deterministic — the simulation clock is virtual.
func ChaosBenchCells(iters int) ([]BenchCell, error) {
	var cells []BenchCell
	for _, sc := range chaosScenarios(iters) {
		faulted, err := chaos.Run(sc.cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: chaos cell %s: %w", sc.name, err)
		}
		clean := sc.cfg
		clean.Schedule = nil
		baseline, err := chaos.Run(clean)
		if err != nil {
			return nil, fmt.Errorf("bench: chaos cell %s (fault-free): %w", sc.name, err)
		}
		nodes := len(sc.cfg.Cluster.Machines)
		cells = append(cells, BenchCell{
			Figure: "chaos", Workload: sc.name,
			Nodes: nodes, GPUsPerNode: sc.cfg.Cluster.Size() / nodes,
			Algo:            fmt.Sprint(sc.cfg.Algo),
			E2ENs:           int64(faulted.Elapsed),
			ChaosOverheadNs: int64(faulted.Elapsed - baseline.Elapsed),
		})
	}
	return cells, nil
}
