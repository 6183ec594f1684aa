package core

import (
	"dfccl/internal/fabric"
	"dfccl/internal/prim"
)

// retiredStats accumulates the counters of executors and rank contexts
// that have been dropped — Unregister/Close, a killed rank's
// releaseAll, ReviveRank — so system-wide totals stay exact across
// open/close churn and elastic membership instead of vanishing with
// the objects that carried them.
type retiredStats struct {
	prims      int
	spinAborts int
	bytes      prim.TransportBytes
	submitted  int
	completed  int
	rank       RankStats
}

// addExec folds an executor's counters in. Every path that deletes a
// collTask must fold its executor into System.retired.
func (st *retiredStats) addExec(x *prim.Executor) {
	st.prims += x.PrimsExecuted
	st.spinAborts += x.SpinAborts
	st.bytes.Add(x.BytesSentBy)
}

// addRank folds a rank context's own counters in; ReviveRank folds the
// revived one's into System.retired (releaseAll has folded its
// executors).
func (st *retiredStats) addRank(r *RankContext) {
	st.submitted += r.submitted
	st.completed += r.completed
	st.rank.add(r.Stats)
}

// totals returns the system-wide sums: the retired counters plus every
// live rank context's and executor's.
func (s *System) totals() retiredStats {
	tot := s.retired
	for _, rc := range s.ranks {
		if rc == nil {
			continue
		}
		tot.addRank(rc)
		for _, t := range rc.tasks {
			tot.addExec(t.exec)
		}
	}
	return tot
}

// add accumulates another rank's daemon statistics.
func (st *RankStats) add(o RankStats) {
	st.DaemonStarts += o.DaemonStarts
	st.VoluntaryQuits += o.VoluntaryQuits
	st.SQEsRead += o.SQEsRead
	st.CQEsWritten += o.CQEsWritten
	st.Preemptions += o.Preemptions
	st.ContextLoads += o.ContextLoads
	st.ContextSaves += o.ContextSaves
	st.SchedulerPass += o.SchedulerPass
}

// Counters is a snapshot of the deployment's process-wide counters,
// keyed by name: "core.launches", "prim.bytes_shm",
// "fabric.<tier>.busy_ns" and so on. encoding/json sorts map keys, so
// it marshals as canonical JSON.
type Counters map[string]int64

// Counter reads one counter (0 if absent).
func (c Counters) Counter(name string) int64 { return c[name] }

// Metrics snapshots the counters core, prim, and fabric already keep:
// launch/completion and daemon lifecycle totals, elastic-membership and
// tuning counts, communicator-pool behavior, per-transport wire bytes,
// and per-tier fabric utilization summed over the tier's links. Call it
// again for fresh numbers.
func (s *System) Metrics() Counters {
	tot := s.totals()
	rs := tot.rank
	c := Counters{
		"core.launches":        int64(tot.submitted),
		"core.completions":     int64(tot.completed),
		"core.daemon_starts":   int64(rs.DaemonStarts),
		"core.voluntary_quits": int64(rs.VoluntaryQuits),
		"core.sqes_read":       int64(rs.SQEsRead),
		"core.cqes_written":    int64(rs.CQEsWritten),
		"core.preemptions":     int64(rs.Preemptions),
		"core.context_loads":   int64(rs.ContextLoads),
		"core.context_saves":   int64(rs.ContextSaves),
		"core.kills":           int64(s.kills),
		"core.revives":         int64(s.revives),
		"core.aborts":          int64(s.aborts),
		"core.reforms":         int64(s.reforms),
		"core.tune_picks":      int64(s.tunePicks),
		"core.comms_created":   int64(s.pool.Created()),
		"core.comms_reused":    int64(s.pool.Reused()),
		"prim.prims_executed":  int64(tot.prims),
		"prim.spin_aborts":     int64(tot.spinAborts),
		"prim.bytes_local":     int64(tot.bytes.Local),
		"prim.bytes_shm":       int64(tot.bytes.SHM),
		"prim.bytes_rdma":      int64(tot.bytes.RDMA),
	}
	for _, l := range s.net.Snapshot() {
		names := &tierCounters[l.Tier]
		c[names[0]]++
		c[names[1]] += int64(l.Bytes)
		c[names[2]] += int64(l.Busy)
		c[names[3]] += int64(l.Saturated)
	}
	return c
}

// tierCounters names Metrics' fabric counters by tier, built once: the
// tier's links, then the sums of their bytes, busy and saturated times.
var tierCounters = func() (names [fabric.TierSpine + 1][4]string) {
	for t := range names {
		prefix := "fabric." + fabric.Tier(t).String() + "."
		names[t] = [4]string{prefix + "links", prefix + "bytes", prefix + "busy_ns", prefix + "saturated_ns"}
	}
	return names
}()
