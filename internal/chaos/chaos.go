// Package chaos is the fault-injection harness for elastic rank
// membership: it runs seeded kill/revive schedules against the live
// data-carrying training workloads of internal/workload (DP gradient
// AllReduce, MoE dispatch over AllToAllv with a runtime-gathered count
// matrix, ZeRO ReduceScatter + AllGather, and the DP+MoE hybrid) and
// verifies that every fault surfaces as a typed core.ErrRankLost or a
// clean group re-formation — never a hang, never silent corruption —
// and that every committed training iteration is bit-identical to a
// serial fault-free reference computed over the membership that
// committed it.
//
// The harness is a membership controller over the shared data plane: it
// decides who is in the group and when to re-form it; workload.Attempt
// runs the members. The protocol is restart-the-epoch. An attempt runs
// iterations over a fixed membership until either all iterations
// commit, a kill aborts the attempt's collectives (every member's
// Future resolves with the typed error; the commit barriers are
// poisoned so nobody blocks on the dead rank), or a revive requests
// re-formation. Between attempts the controller re-forms the group over
// the current survivors — re-opening the collectives through the
// communicator pool, which rebuilds ring and hierarchical wiring for the
// new shape — and restarts from the first uncommitted iteration, which
// is safe because iterations are stateless and idempotent.
//
// Hangs are converted into failures by the engine's MaxTime: a harness
// bug or a lost wakeup surfaces as Report.Hang, not a stuck test.
package chaos

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"dfccl/internal/core"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
	"dfccl/internal/workload"
)

// EventKind distinguishes schedule events.
type EventKind int

const (
	// Kill removes a rank mid-run (core.System.KillRank).
	Kill EventKind = iota
	// Revive returns a previously killed rank to the membership at the
	// next attempt boundary (core.System.ReviveRank).
	Revive
)

// String names the event kind.
func (k EventKind) String() string {
	if k == Kill {
		return "kill"
	}
	return "revive"
}

// Event is one scheduled fault: at virtual time At from the start of
// the run, Kind happens to Rank.
type Event struct {
	At   sim.Duration
	Kind EventKind
	Rank int
}

// Schedule is a time-ordered fault script.
type Schedule []Event

// The run's fixed shape: the DP gradient-tensor count, the
// per-iteration compute sleep, which gives scheduled faults a window to
// land mid-iteration, and the virtual-time bound that turns any hang
// into a reported failure.
const (
	layers     = 3
	compute    = 150 * sim.Microsecond
	maxVirtual = 600 * sim.Second
)

// Config describes one chaos run.
type Config struct {
	// Workload selects the training loop: "dp", "moe", "zero", or
	// "hybrid" (see workload.New).
	Workload string
	// Cluster is the simulated deployment.
	Cluster *topo.Cluster
	// Ranks is the initial membership (global GPU indices).
	Ranks []int
	// Iterations is the number of training iterations to commit.
	Iterations int
	// Algo selects the collective algorithm for the workload's data
	// exchanges (the MoE dispatch, the DP gradient all-reduce, the ZeRO
	// reduce-scatter/all-gather pair): ring, hierarchical, or auto —
	// with auto the tuning table resolves the concrete algorithm per
	// (kind, shape) at every re-formation.
	Algo prim.Algorithm
	// Schedule is the fault script.
	Schedule Schedule
	// Recorder, when non-nil, is installed as the run's flight recorder
	// (core.Config.Recorder): daemon events, executor spans, byte
	// records, and kill/abort/reform/revive marks from the fault script
	// all land on one timeline.
	Recorder *trace.Recorder
}

// Report is a chaos run's outcome.
type Report struct {
	// Workload echoes Config.Workload.
	Workload string
	// Attempts counts group formations (1 for a fault-free run).
	Attempts int
	// KillsApplied / KillsSkipped / RevivesApplied / RevivesSkipped
	// count schedule events by whether they took effect (a kill is
	// skipped when its target is already dead or was never initialized;
	// a revive when its target is alive).
	KillsApplied, KillsSkipped, RevivesApplied, RevivesSkipped int
	// AbortedAttempts counts attempts ended by a typed ErrRankLost;
	// InterruptedAttempts counts clean re-formations requested by a
	// revive.
	AbortedAttempts, InterruptedAttempts int
	// TypedErrors counts futures/opens that resolved with ErrRankLost
	// across all members and attempts.
	TypedErrors int
	// Committed is the number of committed iterations (== Iterations on
	// success).
	Committed int
	// Trajectory records the membership that committed each iteration.
	Trajectory [][]int
	// Hashes fingerprints the lead member's verified output per
	// committed iteration; RefHashes is the serial fault-free reference
	// recomputed outside the simulation from Trajectory.
	Hashes, RefHashes []uint64
	// BitIdentical reports Hashes == RefHashes with full in-run
	// element-wise verification also clean.
	BitIdentical bool
	// Elapsed is the run's total virtual time; a faulted run exceeds a
	// fault-free run of the same config by the chaos overhead (aborted
	// work plus re-formation cost).
	Elapsed sim.Duration
	// Fingerprint is the engine's timeline hash after the run
	// (sim.Engine.Fingerprint): equal configs must reproduce it.
	Fingerprint uint64
	// Hang is set when the run deadlocked, exceeded 600 virtual seconds, or
	// livelocked past the attempt cap.
	Hang bool
	// Err holds the first fatal non-typed failure ("" on success).
	Err string
}

// Ok reports the gate condition: no hang, no untyped error, all
// iterations committed, and outputs bit-identical to the reference.
func (r *Report) Ok() bool {
	return !r.Hang && r.Err == "" && r.Committed > 0 && r.BitIdentical
}

// MembershipChanged reports whether the committed trajectory spans more
// than one distinct membership — i.e. training provably continued
// across a rank leave or join.
func (r *Report) MembershipChanged() bool {
	for i := 1; i < len(r.Trajectory); i++ {
		if !slices.Equal(r.Trajectory[i-1], r.Trajectory[i]) {
			return true
		}
	}
	return false
}

// Run executes the chaos scenario and returns its report. The returned
// error is non-nil exactly when the report is not Ok (hang, untyped
// error, or output divergence) — callers gating on chaos can bubble it
// directly.
func Run(cfg Config) (*Report, error) {
	rep := &Report{Workload: cfg.Workload}
	tenant := workload.Tenant{Algo: cfg.Algo, Layers: layers}
	if err := cfg.validate(tenant); err != nil {
		rep.Err = err.Error()
		return rep, err
	}

	e := sim.NewEngine()
	e.MaxTime = sim.Time(maxVirtual)
	ccfg := core.DefaultConfig()
	ccfg.Recorder = cfg.Recorder
	sys := core.NewSystem(e, cfg.Cluster, ccfg)
	// Controller state, shared with the injector and the members; all
	// access happens from simulated processes, which the engine
	// serializes.
	var (
		prog        workload.Progress
		interrupted bool // a revive requests clean re-formation
		pendRevive  []int
		fatal       error
		running     int
		join        = sim.NewCond("chaos.join")
	)
	stop := func() bool { return interrupted }

	initial := append([]int(nil), cfg.Ranks...)
	sort.Ints(initial)

	// Fault injector: fires the schedule at its virtual times,
	// independent of attempt structure, so kills land mid-collective.
	events := append(Schedule(nil), cfg.Schedule...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	e.Spawn("chaos.injector", func(p *sim.Process) {
		for _, ev := range events {
			if d := ev.At - p.Now().Sub(sim.Time(0)); d > 0 {
				p.Sleep(d)
			}
			switch ev.Kind {
			case Kill:
				if sys.KillRank(ev.Rank) {
					rep.KillsApplied++
				} else {
					rep.KillsSkipped++ // already dead, or never initialized
				}
			case Revive:
				if !sys.RankLost(ev.Rank) {
					rep.RevivesSkipped++
					continue
				}
				pendRevive = append(pendRevive, ev.Rank)
				interrupted = true // re-form at next boundary
			}
		}
	})

	e.Spawn("chaos.controller", func(p *sim.Process) {
		attemptCap := cfg.Iterations + 2*len(events) + 4
		for prog.Next < cfg.Iterations {
			rep.Attempts++
			if rep.Attempts > attemptCap {
				rep.Hang = true
				rep.Err = fmt.Sprintf("chaos: livelock: %d attempts for %d iterations", rep.Attempts, cfg.Iterations)
				break
			}
			// Apply due revives (the rank's abort drain may still be in
			// flight; ReviveRank refuses until it completes).
			for _, rank := range pendRevive {
				if !sys.RankLost(rank) {
					continue
				}
				deadline := p.Now().Add(sim.Duration(5 * sim.Second))
				for sys.ReviveRank(rank) != nil {
					if p.Now().Sub(deadline) >= 0 {
						fatal = fmt.Errorf("chaos: revive of rank %d never drained", rank)
						break
					}
					p.Sleep(5 * sim.Microsecond)
				}
				if !sys.RankLost(rank) {
					rep.RevivesApplied++
				}
			}
			pendRevive = nil
			if fatal != nil {
				break
			}
			members := survivors(sys, initial)
			if len(members) == 0 {
				fatal = errors.New("chaos: schedule killed every rank")
				break
			}
			interrupted = false
			att := workload.NewAttempt(members, cfg.Iterations, compute, &prog, stop)
			running = len(members)
			for pos, rank := range members {
				pos, rank := pos, rank
				e.Spawn(fmt.Sprintf("chaos.worker.%d", rank), func(p *sim.Process) {
					w, _ := workload.New(cfg.Workload, tenant)
					rc := sys.Init(p, rank)
					att.Member(p, rc, w, pos)
					// A dead rank's registrations are auto-released by
					// its exiting poller; live ranks drain any aborted
					// in-flight runs and close their handles so the pool
					// can re-form the group. The harness is the rank
					// context's only user, so waiting for it to go fully
					// idle is safe.
					if !sys.RankLost(rank) {
						rc.WaitAll(p)
						w.Teardown(p)
					}
					running--
					join.Broadcast(p.Engine())
				})
			}
			for running > 0 {
				join.Wait(p)
			}
			rep.TypedErrors += att.TypedErrors
			if att.Aborted {
				rep.AbortedAttempts++
			} else if interrupted && prog.Next < cfg.Iterations {
				rep.InterruptedAttempts++
			}
			if att.Err != nil {
				fatal = att.Err
				break
			}
		}
		// Final teardown: destroy every surviving context so the
		// pollers exit and the engine drains.
		for _, rank := range survivors(sys, initial) {
			sys.Init(p, rank).Destroy(p)
		}
	})

	if err := e.Run(); err != nil {
		rep.Hang = true
		if rep.Err == "" {
			rep.Err = fmt.Sprintf("chaos: %v (blocked: %v)", err, e.BlockedProcesses())
		}
	}
	rep.Elapsed = e.Now().Sub(sim.Time(0))
	rep.Fingerprint = e.Fingerprint()
	rep.Committed, rep.Trajectory, rep.Hashes = prog.Next, prog.Trajectory, prog.Hashes
	if fatal != nil && rep.Err == "" {
		rep.Err = fatal.Error()
	}

	// Serial fault-free reference over the committed trajectory,
	// computed outside the simulation.
	w, _ := workload.New(cfg.Workload, tenant)
	var identical bool
	rep.RefHashes, identical = prog.Reference(w)
	rep.BitIdentical = identical && rep.Committed == cfg.Iterations && fatal == nil
	if !rep.Ok() {
		if rep.Err == "" {
			rep.Err = fmt.Sprintf("chaos: committed %d/%d iterations, bit-identical=%v", rep.Committed, cfg.Iterations, rep.BitIdentical)
		}
		return rep, errors.New(rep.Err)
	}
	return rep, nil
}

// validate checks a config before the engine starts, so a hostile one
// ends in an error instead of a panic or a reported hang.
func (cfg *Config) validate(tenant workload.Tenant) error {
	if cfg.Cluster == nil {
		return errors.New("chaos: nil Cluster")
	}
	if cfg.Iterations <= 0 || len(cfg.Ranks) == 0 {
		return fmt.Errorf("chaos: bad config: %d iterations over %v", cfg.Iterations, cfg.Ranks)
	}
	if cfg.Algo < prim.AlgoRing || cfg.Algo > prim.AlgoAuto {
		return fmt.Errorf("chaos: unknown algorithm %v", cfg.Algo)
	}
	seen := make(map[int]bool, len(cfg.Ranks))
	for _, r := range cfg.Ranks {
		if r < 0 || r >= cfg.Cluster.Size() {
			return fmt.Errorf("chaos: rank %d out of range [0, %d)", r, cfg.Cluster.Size())
		}
		if seen[r] {
			return fmt.Errorf("chaos: duplicate rank %d", r)
		}
		seen[r] = true
	}
	_, err := workload.New(cfg.Workload, tenant)
	return err
}

// survivors returns the members of initial not currently lost.
func survivors(sys *core.System, initial []int) []int {
	var out []int
	for _, r := range initial {
		if !sys.RankLost(r) {
			out = append(out, r)
		}
	}
	return out
}
