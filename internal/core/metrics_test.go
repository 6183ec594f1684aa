package core

import "testing"

// TestMetricsNamesBenchmarkCounters pins the counter names the host-time
// benchmark reads (benchmark/workloads.go's modelCounters). It reads
// them by string through Counter, which returns 0 for an absent name,
// so a renamed counter would otherwise read 0 there without failing.
func TestMetricsNamesBenchmarkCounters(t *testing.T) {
	c := newSys(2, DefaultConfig()).Metrics()
	for _, name := range []string{
		"core.launches", "core.completions", "core.preemptions", "core.context_saves",
		"core.context_loads", "core.daemon_starts", "core.voluntary_quits", "core.sqes_read",
		"core.comms_created", "core.comms_reused",
		"prim.prims_executed", "prim.spin_aborts", "prim.bytes_shm", "prim.bytes_rdma",
	} {
		if _, ok := c[name]; !ok {
			t.Errorf("Metrics() has no counter %q", name)
		}
	}
	if got := c.Counter("no.such.counter"); got != 0 {
		t.Fatalf("absent counter reads %d, want 0", got)
	}
}
