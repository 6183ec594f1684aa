// Package cluster is the multi-tenant cluster driver: it turns the
// single-job library into the "millions of users" scenario by running
// many heterogeneous training jobs — data-parallel, MoE, ZeRO, and a
// hybrid of the three — concurrently against one shared fabric, one
// communicator pool, and one set of per-GPU daemons.
//
// The driver borrows SYSFLOW's split of a lightweight control plane
// from per-instance data-plane queues. The control plane is two small
// simulated processes: an arrival injector that releases jobs from a
// Poisson or trace-driven schedule into the pending queue, and an
// admission controller that re-runs a pluggable Policy (FIFO, priority,
// NIC-load bin-packing) on every arrival, completion, or requeue,
// placing admitted jobs onto — possibly overlapping — rank sets subject
// to a per-GPU concurrency slot cap. The data plane is the jobs
// themselves — internal/workload iterations run by workload.Attempt,
// one per placement: per-member worker processes sharing the per-rank
// contexts and daemon queues, launching collectives tagged with WithJob
// and WithPriority so daemon scheduling, trace spans, and fabric flows
// all carry the tenant.
//
// The core invariant is the library's own: multi-tenancy may change
// timing, never data. Every committed job iteration is verified
// element-wise in-run and fingerprinted, and the fingerprints must be
// bit-identical to the job running alone — checked both against a pure
// out-of-sim reference (RefHashes) and, in the gates, against an actual
// solo re-run (SoloHashes). Kills landing during admission or mid-run
// surface as typed core.ErrRankLost aborts; the aborted job is requeued
// and re-placed onto survivors, resuming from its first uncommitted
// iteration. Hangs become failures through the engine's MaxTime, never
// stuck tests.
package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"dfccl/internal/metrics"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
	"dfccl/internal/workload"
)

// JobSpec describes one tenant job: what it trains, how many ranks it
// wants, and when it arrives.
type JobSpec struct {
	// ID is the positive tenant job ID; it tags the job's collectives,
	// spans, sends, and fabric flows (0 is reserved for untagged
	// single-job use). IDs must be unique within a trace.
	ID int
	// Kind selects the workload: "dp", "moe", "zero", or "hybrid".
	Kind string
	// Size is the number of ranks the job needs.
	Size int
	// Priority is the job's scheduling priority (higher = more urgent):
	// the priority admission policy orders on it, and every collective
	// the job opens carries it into the daemons' priority queues.
	Priority int
	// Iterations is the number of training iterations to commit.
	Iterations int
	// Layers is the dp/hybrid gradient-tensor count (default 2).
	Layers int
	// Algo selects the collective algorithm (default ring; AlgoAuto
	// defers to the tuning table per shape).
	Algo prim.Algorithm
	// Arrival is the job's arrival time from run start.
	Arrival sim.Duration
	// Compute is the per-iteration compute sleep (default 40µs).
	Compute sim.Duration
}

// workload builds one member's instance of the job's workload; it
// validates Kind.
func (j JobSpec) workload() (workload.Workload, error) {
	layers := j.Layers
	if layers <= 0 {
		layers = 2
	}
	return workload.New(j.Kind, workload.Tenant{Job: j.ID, Priority: j.Priority, Algo: j.Algo, Layers: layers})
}

// compute is the job's per-iteration compute sleep.
func (j JobSpec) compute() sim.Duration {
	if j.Compute <= 0 {
		return 40 * sim.Microsecond
	}
	return j.Compute
}

// KillEvent is one scheduled fault: rank Rank dies at time At. Jobs
// placed on the rank abort with the typed error and are requeued onto
// survivors; jobs being admitted skip the lost rank at placement.
type KillEvent struct {
	At   sim.Duration
	Rank int
}

// Config describes one cluster run.
type Config struct {
	// Cluster is the simulated deployment all jobs share.
	Cluster *topo.Cluster
	// Jobs is the arrival trace (see Generate and BurstyTrace).
	Jobs []JobSpec
	// Policy is the admission/placement policy (default FIFO).
	Policy Policy
	// SlotsPerGPU caps how many jobs may run concurrently on one GPU
	// (default 2). Admission refuses placements that would exceed it —
	// the full-pool rejection path.
	SlotsPerGPU int
	// Oversub, when > 0, prices transfers on a shared congestion-aware
	// fabric with that leaf/spine oversubscription factor; 0 prices
	// every transfer independently (contention in queues only).
	Oversub float64
	// Kills is the fault schedule.
	Kills []KillEvent
	// Recorder, when non-nil, is installed as the run's flight
	// recorder: per-job action spans, sends, and fabric flow events all
	// land on one timeline.
	Recorder *trace.Recorder
}

// JobResult is one job's outcome.
type JobResult struct {
	// Spec echoes the job.
	Spec JobSpec
	// Ranks is the final placement (the one that committed the last
	// iteration; earlier attempts may have run elsewhere).
	Ranks []int
	// Arrival, Admitted, and Done are the job's lifecycle timestamps;
	// Admitted is the first admission (requeues do not reset it).
	Arrival, Admitted, Done sim.Time
	// Wait is Admitted-Arrival: time spent queued before first
	// placement. Latency is Done-Arrival: the job's full sojourn.
	Wait, Latency sim.Duration
	// Attempts counts placements (1 = never requeued).
	Attempts int
	// Committed is the number of committed iterations.
	Committed int
	// Trajectory records the membership that committed each iteration;
	// Hashes fingerprints the lead member's verified output per
	// committed iteration, and RefHashes is the pure out-of-sim solo
	// reference over the same trajectory.
	Trajectory [][]int
	// Hashes and RefHashes are the committed and reference
	// fingerprints; BitIdentical reports they match with in-run
	// element-wise verification also clean.
	Hashes, RefHashes []uint64
	// BitIdentical reports Hashes == RefHashes over a fully committed
	// job.
	BitIdentical bool
	// Failed marks a job that exceeded its attempt cap or could never
	// be placed.
	Failed bool
}

// Report is a cluster run's outcome.
type Report struct {
	// Policy names the admission policy that ran.
	Policy string
	// Jobs holds one result per configured job, in Config.Jobs order.
	Jobs []JobResult
	// Admissions counts successful placements (including re-placements
	// after requeue); Requeues counts jobs re-entering the pending
	// queue after a typed abort; Rejections counts admission passes
	// that left at least one pending job unplaced for lack of free
	// slots — the full-pool backpressure evidence.
	Admissions, Requeues, Rejections int
	// KillsApplied and KillsSkipped count fault-schedule events by
	// whether they took effect.
	KillsApplied, KillsSkipped int
	// PoolCreated and PoolReused are the communicator pool's churn
	// counters over the whole run.
	PoolCreated, PoolReused int
	// JobBytes is the fabric's per-tenant byte attribution (key 0 =
	// untagged traffic; absent jobs moved no bytes).
	JobBytes map[int]int64
	// Elapsed is the run's total virtual time (the makespan).
	Elapsed sim.Duration
	// Fingerprint is the engine's timeline hash after the run
	// (sim.Engine.Fingerprint): equal configs must reproduce it.
	Fingerprint uint64
	// Hang is set when the run deadlocked, exceeded 600 virtual seconds, or
	// livelocked past the attempt cap.
	Hang bool
	// Err holds the first fatal failure ("" on success).
	Err string
}

// Ok reports the gate condition: no hang, no error, and every job
// fully committed with bit-identical outputs.
func (r *Report) Ok() bool {
	if r.Hang || r.Err != "" || len(r.Jobs) == 0 {
		return false
	}
	for i := range r.Jobs {
		j := &r.Jobs[i]
		if j.Failed || j.Committed != j.Spec.Iterations || !j.BitIdentical {
			return false
		}
	}
	return true
}

// LatencySeries collects Done-Arrival sojourn times (in virtual ns)
// over the jobs matching pred (nil = all) into a metrics series, so
// callers report p50/p99 distributions instead of single-run means.
func (r *Report) LatencySeries(pred func(*JobResult) bool) *metrics.Series {
	s := &metrics.Series{}
	for i := range r.Jobs {
		j := &r.Jobs[i]
		if pred == nil || pred(j) {
			s.Add(float64(j.Latency))
		}
	}
	return s
}

// validate checks a config before the engine spins up.
func (cfg *Config) validate() error {
	if cfg.Cluster == nil {
		return fmt.Errorf("cluster: nil Cluster")
	}
	if len(cfg.Jobs) == 0 {
		return fmt.Errorf("cluster: empty job trace")
	}
	seen := make(map[int]bool, len(cfg.Jobs))
	for i := range cfg.Jobs {
		j := &cfg.Jobs[i]
		if j.ID <= 0 {
			return fmt.Errorf("cluster: job %d has non-positive ID %d", i, j.ID)
		}
		if seen[j.ID] {
			return fmt.Errorf("cluster: duplicate job ID %d", j.ID)
		}
		seen[j.ID] = true
		if j.Size < 2 || j.Size > cfg.Cluster.Size() {
			return fmt.Errorf("cluster: job %d size %d out of range [2, %d]", j.ID, j.Size, cfg.Cluster.Size())
		}
		if j.Iterations <= 0 {
			return fmt.Errorf("cluster: job %d has %d iterations", j.ID, j.Iterations)
		}
		if j.Arrival < 0 {
			return fmt.Errorf("cluster: job %d arrives at %v, before the run starts", j.ID, j.Arrival)
		}
		if _, err := j.workload(); err != nil {
			return err
		}
	}
	return nil
}

// byArrival returns job indices sorted by (Arrival, ID) — the order the
// arrival injector releases them in.
func byArrival(jobs []JobSpec) []int {
	idx := make([]int, len(jobs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(jobs[a].Arrival, jobs[b].Arrival), cmp.Compare(jobs[a].ID, jobs[b].ID))
	})
	return idx
}
