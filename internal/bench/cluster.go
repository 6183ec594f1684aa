package bench

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dfccl/internal/cluster"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// ClusterRow is one admission policy's line of the multi-tenant cluster
// figure: the bursty trace's queueing outcome as latency distributions
// (p50/p99 sojourn, never means) plus the contention evidence — slot
// rejections, requeues, and communicator-pool churn.
type ClusterRow struct {
	// Policy names the admission policy.
	Policy string
	// Jobs is the trace length; Admissions, Requeues, and Rejections
	// are the control plane's counters over the run.
	Jobs, Admissions, Requeues, Rejections int
	// PoolCreated and PoolReused are the communicator pool's churn
	// counters across all tenants.
	PoolCreated, PoolReused int
	// P50 and P99 are job-sojourn percentiles over all jobs; HiP99 is
	// the p99 over the high-priority class only — the number the
	// priority-vs-FIFO gate compares.
	P50, P99, HiP99 sim.Duration
	// Makespan is the run's total virtual time.
	Makespan sim.Duration
}

// String renders the row for the figure output.
func (r ClusterRow) String() string {
	return fmt.Sprintf("%-8s jobs=%d adm=%d requeue=%d reject=%d pool=%d+%d  p50=%v p99=%v hi-p99=%v makespan=%v",
		r.Policy, r.Jobs, r.Admissions, r.Requeues, r.Rejections,
		r.PoolCreated, r.PoolReused,
		time.Duration(r.P50), time.Duration(r.P99), time.Duration(r.HiP99), time.Duration(r.Makespan))
}

// clusterShape is the figure's deployment: 2 machines × 4 GPUs on an
// oversubscribed shared fabric, one admission slot per GPU so the
// bursty wave saturates the pool.
const clusterOversub = 4

// ClusterGate runs the multi-tenant cluster figure and enforces its
// gates:
//
//   - every job of every policy commits all iterations bit-identical to
//     the pure solo reference AND to an actual solo re-run of the same
//     spec on the same ranks — multi-tenancy changed timing, never data;
//   - a rerun of every policy's trace reproduces its timeline
//     fingerprint;
//   - the bursty trace exhibits real contention (slot rejections > 0)
//     and pool churn (communicators reused across MoE iteration groups);
//   - the priority policy strictly beats FIFO on high-priority p99
//     sojourn — the priority-inversion demonstration;
//   - a kill mid-run yields a typed abort, a requeue onto survivors,
//     and a still-bit-identical recommit — deadlock-free under faults;
//   - after every run drains, the host leaks zero goroutines.
func ClusterGate() ([]ClusterRow, error) {
	cl := topo.MultiNode3090(2)
	jobs := cluster.BurstyTrace(1, 8, 6)
	hi := func(j *cluster.JobResult) bool { return j.Spec.Priority > 0 }

	runtime.GC()
	baseline := runtime.NumGoroutine()
	var rows []ClusterRow
	hiP99 := map[string]float64{}
	for _, pol := range []cluster.Policy{cluster.FIFO{}, cluster.PriorityPolicy{}, cluster.BinPack{}} {
		cfg := cluster.Config{Cluster: cl, Jobs: jobs, Policy: pol, SlotsPerGPU: 1, Oversub: clusterOversub}
		rep, err := cluster.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("cluster gate: policy %s: %w", pol.Name(), err)
		}
		if again, err := cluster.Run(cfg); err != nil || again.Fingerprint != rep.Fingerprint {
			return nil, fmt.Errorf("cluster gate: policy %s: rerun gave timeline %#x (%v), first run %#x",
				pol.Name(), again.Fingerprint, err, rep.Fingerprint)
		}
		for i := range rep.Jobs {
			j := &rep.Jobs[i]
			solo, err := cluster.SoloHashes(cl, j.Spec, j.Ranks, clusterOversub)
			if err != nil {
				return nil, fmt.Errorf("cluster gate: solo re-run of job %d: %w", j.Spec.ID, err)
			}
			if !reflect.DeepEqual(solo, j.Hashes) {
				return nil, fmt.Errorf("cluster gate: policy %s job %d (%s on %v): multi-tenant hashes %x != solo %x",
					pol.Name(), j.Spec.ID, j.Spec.Kind, j.Ranks, j.Hashes, solo)
			}
		}
		if rep.Rejections == 0 {
			return nil, fmt.Errorf("cluster gate: policy %s: bursty trace never filled the pool", pol.Name())
		}
		if rep.PoolReused == 0 {
			return nil, fmt.Errorf("cluster gate: policy %s: no communicator-pool reuse under churn", pol.Name())
		}
		all := rep.LatencySeries(nil)
		hiS := rep.LatencySeries(hi)
		row := ClusterRow{
			Policy: rep.Policy, Jobs: len(rep.Jobs),
			Admissions: rep.Admissions, Requeues: rep.Requeues, Rejections: rep.Rejections,
			PoolCreated: rep.PoolCreated, PoolReused: rep.PoolReused,
			P50: sim.Duration(all.Percentile(50)), P99: sim.Duration(all.Percentile(99)),
			HiP99: sim.Duration(hiS.Percentile(99)), Makespan: rep.Elapsed,
		}
		hiP99[rep.Policy] = float64(row.HiP99)
		rows = append(rows, row)
	}
	if hiP99["priority"] >= hiP99["fifo"] {
		return nil, fmt.Errorf("cluster gate: priority policy hi-pri p99 %v not better than FIFO's %v — priority inversion not fixed",
			time.Duration(hiP99["priority"]), time.Duration(hiP99["fifo"]))
	}

	// Fault scenario: a kill lands mid-iteration; the tenant must abort
	// with the typed error, requeue onto survivors, and recommit every
	// iteration bit-identically.
	rep, err := cluster.Run(cluster.Config{
		Cluster: cl,
		Jobs:    []cluster.JobSpec{{ID: 1, Kind: "dp", Size: 2, Iterations: 3, Compute: 20 * sim.Microsecond}},
		Policy:  cluster.FIFO{},
		Oversub: clusterOversub,
		Kills:   []cluster.KillEvent{{At: 30 * sim.Microsecond, Rank: 0}},
	})
	if err != nil {
		return nil, fmt.Errorf("cluster gate: kill scenario: %w", err)
	}
	if rep.KillsApplied != 1 || rep.Requeues == 0 {
		return nil, fmt.Errorf("cluster gate: kill scenario applied %d kills, %d requeues; want 1 and >0",
			rep.KillsApplied, rep.Requeues)
	}

	// No-leak gate: finished sim processes exit asynchronously, so give
	// the scheduler a few GC'd beats before declaring a leak.
	for i := 0; i < 50; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return rows, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("cluster gate: goroutines leaked after drain: baseline %d, now %d",
		baseline, runtime.NumGoroutine())
}

func figCluster(w io.Writer, _ Opts) error {
	rows, err := ClusterGate()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "multi-tenant cluster gate (bursty low-pri wave + high-pri shorties, 2×4 GPUs, oversubscribed shared fabric, 1 slot/GPU)")
	for _, r := range rows {
		fmt.Fprintln(w, "  "+r.String())
	}
	fmt.Fprintln(w, "cluster gates passed: every job bit-identical to its solo run, priority beats FIFO on high-priority p99,")
	fmt.Fprintln(w, "pool reused across tenant churn, kill-induced requeue recommitted bit-identically, zero goroutines leaked")
	return nil
}

// allocQuantum coarsens the launch-path allocs/op measurement so the
// committed benchmark snapshot stays byte-stable across Go patch
// releases and harness noise while still catching real regressions.
const allocQuantum = 32

// LaunchPathAllocCell measures the recording-free launch path's
// allocations per end-to-end probe run (the BenchmarkTraceProbe_
// NilRecorder number) and returns it as a benchmark-matrix cell,
// quantized to the nearest 32 allocations.
func LaunchPathAllocCell() (BenchCell, error) {
	// Warm-up run outside the measurement (pool growth, lazy tables).
	if _, err := TraceProbe(nil); err != nil {
		return BenchCell{}, err
	}
	var err error
	allocs := testing.AllocsPerRun(64, func() {
		if _, e := TraceProbe(nil); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		return BenchCell{}, err
	}
	row, _, err := measure(traceProbeCell)
	if err != nil {
		return BenchCell{}, err
	}
	b := traceProbeCell.benchCell("launchpath", row)
	b.Workload = "traceprobe-nilrecorder"
	b.AllocsPerOp = (int(allocs) + allocQuantum/2) / allocQuantum * allocQuantum
	return b, nil
}

// ClusterBenchCells runs the cluster gate and flattens its rows into
// the benchmark matrix's multi-job contention column, one cell per
// admission policy, plus the launch-path allocation cell.
func ClusterBenchCells() ([]BenchCell, error) {
	rows, err := ClusterGate()
	if err != nil {
		return nil, err
	}
	var cells []BenchCell
	for _, r := range rows {
		cells = append(cells, BenchCell{
			Figure: "cluster", Nodes: 2, GPUsPerNode: 4,
			Fabric: fmt.Sprintf("oversub%g", float64(clusterOversub)), Oversub: clusterOversub,
			Workload: "bursty", Policy: r.Policy, Jobs: r.Jobs,
			E2ENs: int64(r.Makespan),
			P50Ns: int64(r.P50), P99Ns: int64(r.P99), HiPriP99Ns: int64(r.HiP99),
		})
	}
	alloc, err := LaunchPathAllocCell()
	if err != nil {
		return nil, err
	}
	return append(cells, alloc), nil
}
