package main

// metricSpec is one row of BENCHMARK.json: the unit, the direction, and
// for an end-to-end metric the share of the parent's median by which it
// may worsen before a change counts as a regression.
type metricSpec struct {
	Unit   string
	Better string
	Bound  float64 // end-to-end only
	E2E    bool
	Model  bool // a count made by the modelled system, not a host cost
}

func e2e(unit string, bound float64) metricSpec {
	return metricSpec{Unit: unit, Better: "lower", Bound: bound, E2E: true}
}

func lower(unit string) metricSpec  { return metricSpec{Unit: unit, Better: "lower"} }
func higher(unit string) metricSpec { return metricSpec{Unit: unit, Better: "higher"} }

// model declares a counter of the modelled system. It has no better
// direction of its own; "lower" means less modelled work.
func model(unit string) metricSpec { return metricSpec{Unit: unit, Better: "lower", Model: true} }

// endToEnd orders the end-to-end metrics for tables. Host clock unless
// the name starts with virt_.
var endToEnd = []string{"setup_s", "unit_ms_p50", "cpu_ms_per_unit", "allocs_per_unit", "alloc_mb_per_unit", "peak_rss_mb", "virt_us_per_unit"}

// metricSpecs declares every metric the benchmark emits. Names with
// virt_ are on the virtual clock and, like the model counters, are
// properties of the modelled DFCCL: a change meant only to make the
// simulator faster must leave them identical.
var metricSpecs = map[string]metricSpec{
	"setup_s":           e2e("s", 0.25),
	"unit_ms_p50":       e2e("ms", 0.25),
	"cpu_ms_per_unit":   e2e("ms", 0.25),
	"allocs_per_unit":   e2e("count", 0.05),
	"alloc_mb_per_unit": e2e("MB", 0.05),
	"peak_rss_mb":       e2e("MB", 0.10),
	"virt_us_per_unit":  e2e("us", 0.10),

	"sim.switch_ns":        lower("ns"),
	"sim.switch_deep_ns":   lower("ns"),
	"sim.cond_pingpong_ns": lower("ns"),
	"sim.bcast_wake_ns":    lower("ns"),
	"sim.spawn_ns":         lower("ns"),
	"sim.cpu_share":        lower("share"),

	"mem.conn_rw_ns":       lower("ns"),
	"mem.reduce_ns_per_kb": lower("ns"),
	"mem.cpu_share":        lower("share"),

	"fabric.unshared_xfer_ns":      lower("ns"),
	"fabric.lone_xfer_ns":          lower("ns"),
	"fabric.contended_xfer_ns":     lower("ns"),
	"fabric.flows_per_unit":        model("count"),
	"fabric.rate_changes_per_flow": model("count"),
	"fabric.sat_spans_per_unit":    model("count"),
	"fabric.spine_saturated_share": model("share"),
	"fabric.cpu_share":             lower("share"),

	"prim.step_ns":              lower("ns"),
	"prim.seq_ring_ns":          lower("ns"),
	"prim.seq_hier_ns":          lower("ns"),
	"prim.prims_per_unit":       model("count"),
	"prim.spin_aborts_per_prim": model("count"),
	"prim.bytes_shm_per_unit":   model("B"),
	"prim.bytes_rdma_per_unit":  model("B"),
	"prim.virt_action_us_p50":   lower("us"),
	"prim.cpu_share":            lower("share"),

	"core.open_us":                    lower("us"),
	"core.close_us":                   lower("us"),
	"core.init_destroy_us":            lower("us"),
	"core.relaunch_us":                lower("us"),
	"core.reform_us":                  lower("us"),
	"core.preemptions_per_launch":     model("count"),
	"core.ctx_saves_per_launch":       model("count"),
	"core.ctx_loads_per_launch":       model("count"),
	"core.daemon_starts_per_launch":   model("count"),
	"core.voluntary_quits_per_launch": model("count"),
	"core.sqes_read_per_launch":       model("count"),
	"core.launches_per_unit":          model("count"),
	"core.pool_reuse_share":           model("share"),
	"core.virt_e2e_us_p50":            lower("us"),
	"core.virt_coreexec_us_p50":       lower("us"),
	"core.virt_queue_us_p50":          lower("us"),
	"core.cpu_share":                  lower("share"),

	"cluster.generate_us":            lower("us"),
	"cluster.admit_ns":               lower("ns"),
	"cluster.admissions_per_unit":    model("count"),
	"cluster.rejections_per_unit":    model("count"),
	"cluster.requeues_per_unit":      model("count"),
	"cluster.kills_applied_per_unit": model("count"),
	"cluster.virt_wait_us_p50":       lower("us"),
	"cluster.virt_sojourn_us_p50":    lower("us"),
	"cluster.virt_sojourn_us_p99":    lower("us"),
	"cluster.cpu_share":              lower("share"),

	"chaos.kill_revive_ms":   lower("ms"),
	"chaos.virt_overhead_us": lower("us"),
	"chaos.cpu_share":        lower("share"),

	"trace.overhead_share":   lower("share"),
	"trace.actions_per_unit": model("count"),
	"trace.sends_per_unit":   model("count"),
	"trace.cpu_share":        lower("share"),

	"ncclsim.virt_ratio": lower("ratio"),
	"ncclsim.run_ms":     lower("ms"),
	"ncclsim.cpu_share":  lower("share"),

	"cudasim.cpu_share": lower("share"),
	"tune.cpu_share":    lower("share"),
	"other.cpu_share":   lower("share"),
	"bench.cpu_share":   lower("share"),
	"runtime.cpu_share": lower("share"),

	"bench.cpu_samples":       higher("count"),
	"bench.unit_ms_p90":       lower("ms"),
	"bench.units":             higher("count"),
	"bench.gc_pause_ms":       lower("ms"),
	"bench.fail_share":        lower("share"),
	"bench.virt_repeat_exact": higher("bool"),
}
