package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

// modelUnits is how many units, from the first, the virtual-time and
// model-counter metrics cover. It is fixed so that they depend on the
// seed alone, never on how many units the host managed to run; a phase
// always runs at least this many, and always a whole number of passes
// over the disorder corpus (see facadeWorkload.prepare), so that host
// metrics weigh every pattern equally too.
const modelUnits = 2 * corpus

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: what the driver line prints,
// plus what only the -out file keeps.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Units     int               `json:"units"` // sample count behind unit_ms_p50
	Errors    []string          `json:"errors,omitempty"`
	TopSelf   []string          `json:"top_self,omitempty"` // top-5 self-time functions of the traced phase
	Spans     []span            `json:"spans,omitempty"`
}

// phase is one timed loop of units.
type phase struct {
	unitMs      []float64
	virtUs      []float64          // first modelUnits units
	model       map[string]float64 // summed over the first modelUnits units
	ops, failed int
	errs        []string
	cpuMs       float64 // user+sys CPU over the loop
	mallocs     float64
	allocMB     float64
	gcPauseMs   float64
}

// usage reads the process's CPU time so far (user+system) and its peak
// resident set, which Linux reports in KiB (the VmHWM of /proc).
func usage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

// runPhase runs units seed, seed+1, ... one after another for d, then
// on to the end of the pass over the corpus, and at least modelUnits of
// them. A tiny phase (tests) may stop after any unit.
func runPhase(r runner, seed int64, d time.Duration, tiny bool, tr *tracer) phase {
	ph := phase{model: map[string]float64{}}
	minUnits, pass := modelUnits, corpus
	if tiny {
		minUnits, pass = 1, 1
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0, _ := usage()
	deadline := time.Now().Add(d)
	for u := 0; u < minUnits || u%pass != 0 || time.Now().Before(deadline); u++ {
		began := time.Now()
		out := r.unit(&unitEnv{id: u, seed: seed + int64(u), tr: tr})
		ph.unitMs = append(ph.unitMs, float64(time.Since(began))/1e6)
		ph.ops += out.ops
		ph.failed += out.failed
		if out.err != "" && len(ph.errs) < 5 {
			ph.errs = append(ph.errs, fmt.Sprintf("unit %d (seed %d): %s", u, seed+int64(u), out.err))
		}
		if u < modelUnits {
			ph.virtUs = append(ph.virtUs, float64(out.virtNs)/1e3)
			for k, v := range out.model {
				ph.model[k] += v
			}
		}
	}
	cpu1, _ := usage()
	ph.cpuMs = float64(cpu1-cpu0) / 1e6
	runtime.ReadMemStats(&m1)
	ph.mallocs = float64(m1.Mallocs - m0.Mallocs)
	ph.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	ph.gcPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	return ph
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[min(max(int(q*float64(len(s))+0.5)-1, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// runWorkload is one run: set up setupRounds times (each with one
// discarded warm-up unit), then measure for d. With trace off it
// reports the end-to-end metrics. With trace on it spends half of d
// untraced and half traced — spans, flight recorder, CPU profile — then
// runs the per-layer probes, and reports the per-layer metrics.
func runWorkload(def *workloadDef, seed int64, d time.Duration, traced, tiny bool) (*runResult, error) {
	res := &runResult{Workload: def.name, Seed: seed, Metrics: map[string]metric{}}

	var r runner
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		r = nil
		runtime.GC()
		began := time.Now()
		r = def.setup(seed, tiny)
		warm := r.unit(&unitEnv{id: -1 - i, seed: seed - 1 - int64(i)})
		setups = append(setups, time.Since(began).Seconds())
		res.Attempted += warm.ops
		res.Failed += warm.failed
		if warm.err != "" {
			res.Errors = append(res.Errors, "warm-up: "+warm.err)
		}
	}

	if !traced {
		ph := runPhase(r, seed, d, tiny, nil)
		res.take(ph)
		n := float64(len(ph.unitMs))
		res.put("setup_s", median(setups))
		res.put("unit_ms_p50", median(ph.unitMs))
		res.put("cpu_ms_per_unit", ph.cpuMs/n)
		res.put("allocs_per_unit", ph.mallocs/n)
		res.put("alloc_mb_per_unit", ph.allocMB/n)
		_, peak := usage()
		res.put("peak_rss_mb", peak)
		res.put("virt_us_per_unit", median(ph.virtUs))
		return res, nil
	}

	res.Trace = 1
	plain := runPhase(r, seed, d/2, tiny, nil)
	res.take(plain)
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("%s: cpu profile: %w", def.name, err)
	}
	hot := runPhase(r, seed, d/2, tiny, tr)
	pprof.StopCPUProfile()
	res.take(hot)
	res.Spans = tr.spans
	cpu, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%s: cpu profile: %w", def.name, err)
	}
	res.TopSelf = cpu.top(5)
	res.layerMetrics(plain, hot, tr, cpu)
	if err := runProbes(res, def.name, tiny); err != nil {
		return nil, err
	}
	return res, nil
}

func (res *runResult) take(ph phase) {
	res.Units = len(ph.unitMs)
	res.Attempted += ph.ops
	res.Failed += ph.failed
	res.Errors = append(res.Errors, ph.errs...)
	res.Correct = res.Failed == 0
}

func (res *runResult) put(name string, v float64) {
	spec, ok := metricSpecs[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	res.Metrics[name] = metric{Value: v, Unit: spec.Unit}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills the counters, virtual spans and CPU shares of the
// per-layer set; runProbes adds the isolated probes.
func (res *runResult) layerMetrics(plain, hot phase, tr *tracer, cpu *cpuFold) {
	m := hot.model // model counters of the first modelUnits traced units
	units := float64(len(hot.virtUs))
	traced := tr.count["units"]
	launches := m["core.launches"]

	res.put("fabric.flows_per_unit", ratio(tr.count["flows"], traced))
	res.put("fabric.rate_changes_per_flow", ratio(tr.count["rate_changes"], tr.count["flows"]))
	res.put("fabric.sat_spans_per_unit", ratio(tr.count["sat_spans"], traced))
	res.put("fabric.spine_saturated_share", ratio(tr.count["spine_sat_ns"], tr.count["virt_ns"]))

	res.put("prim.prims_per_unit", m["prim.prims_executed"]/units)
	res.put("prim.spin_aborts_per_prim", ratio(m["prim.spin_aborts"], m["prim.prims_executed"]))
	res.put("prim.bytes_shm_per_unit", m["prim.bytes_shm"]/units)
	res.put("prim.bytes_rdma_per_unit", m["prim.bytes_rdma"]/units)
	res.put("prim.virt_action_us_p50", median(tr.actionUs))

	res.put("core.open_us", median(tr.openUs))
	res.put("core.close_us", median(tr.closeUs))
	res.put("core.preemptions_per_launch", ratio(m["core.preemptions"], launches))
	res.put("core.ctx_saves_per_launch", ratio(m["core.context_saves"], launches))
	res.put("core.ctx_loads_per_launch", ratio(m["core.context_loads"], launches))
	res.put("core.daemon_starts_per_launch", ratio(m["core.daemon_starts"], launches))
	res.put("core.voluntary_quits_per_launch", ratio(m["core.voluntary_quits"], launches))
	res.put("core.sqes_read_per_launch", ratio(m["core.sqes_read"], launches))
	res.put("core.launches_per_unit", launches/units)
	res.put("core.pool_reuse_share", ratio(m["core.comms_reused"], m["core.comms_created"]+m["core.comms_reused"]))
	res.put("core.virt_e2e_us_p50", median(tr.e2eUs))
	res.put("core.virt_coreexec_us_p50", median(tr.coreUs))
	res.put("core.virt_queue_us_p50", median(tr.queueUs))

	res.put("cluster.admissions_per_unit", m["cluster.admissions"]/units)
	res.put("cluster.rejections_per_unit", m["cluster.rejections"]/units)
	res.put("cluster.requeues_per_unit", m["cluster.requeues"]/units)
	res.put("cluster.kills_applied_per_unit", m["cluster.kills_applied"]/units)
	res.put("cluster.virt_wait_us_p50", median(tr.waitUs))
	res.put("cluster.virt_sojourn_us_p50", median(tr.sojournUs))
	res.put("cluster.virt_sojourn_us_p99", quantile(tr.sojournUs, 0.99))

	p50, p50hot := median(plain.unitMs), median(hot.unitMs)
	res.put("trace.overhead_share", ratio(p50hot-p50, p50))
	res.put("trace.actions_per_unit", ratio(tr.count["actions"], traced))
	res.put("trace.sends_per_unit", ratio(tr.count["sends"], traced))

	for _, layer := range cpuLayers {
		res.put(layer+".cpu_share", cpu.share(layer))
	}
	res.put("bench.cpu_samples", cpu.total)
	res.put("bench.unit_ms_p90", quantile(plain.unitMs, 0.9))
	res.put("bench.units", float64(len(plain.unitMs)))
	res.put("bench.gc_pause_ms", plain.gcPauseMs)
	res.put("bench.fail_share", ratio(float64(res.Failed), float64(res.Attempted)))
	// Both halves ran the same seeds; only a tiny phase is ever shorter
	// than modelUnits.
	n := min(len(plain.virtUs), len(hot.virtUs))
	exact := 0.0
	if slices.Equal(plain.virtUs[:n], hot.virtUs[:n]) {
		exact = 1
	}
	res.put("bench.virt_repeat_exact", exact)
}
