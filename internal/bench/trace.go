package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dfccl/internal/core"
	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/metrics"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// Trace-scenario shape: a 2×4 deployment on a 2:1-oversubscribed
// shared fabric running a DP gradient all-reduce (AlgoAuto) plus an
// MoE-style hierarchical all-to-all per iteration, with rank 5 killed
// mid-run, the survivors re-forming both collectives, and the victim
// revived at the end — every observability surface (executor spans,
// fabric flows, chaos marks, tune picks) exercised in one timeline.
const (
	traceNodes, traceGPUs = 2, 4
	traceVictim           = 5
	traceARElems          = 256
	traceA2AElems         = 32
	traceReformedIters    = 2
	traceMaxIters         = 50
	traceCompute          = 20 * sim.Microsecond
	traceKillAt           = 2 * sim.Millisecond
	traceOversub          = 2.0
	traceARCollID         = 1
	traceA2ACollID        = 2
)

// spanGate is one clean collective's expected span count on one GPU:
// Completions × NumPrimitives, collected at Close time.
type spanGate struct {
	coll, gpu, want int
}

// figTrace runs the flight-recorder scenario twice and writes its
// artifacts — the Chrome/Perfetto trace.json and the canonical
// metrics.json — into -out, failing unless every reconciliation of
// traceScenario holds and the two runs produced byte-identical JSON.
func figTrace(w io.Writer, o Opts) error {
	traceJSON, metricsJSON, summary, err := traceScenario()
	if err != nil {
		return err
	}
	traceAgain, metricsAgain, _, err := traceScenario()
	if err != nil {
		return fmt.Errorf("bench: trace rerun: %w", err)
	}
	if !bytes.Equal(traceJSON, traceAgain) {
		return fmt.Errorf("bench: trace.json not deterministic: %d vs %d bytes", len(traceJSON), len(traceAgain))
	}
	if !bytes.Equal(metricsJSON, metricsAgain) {
		return fmt.Errorf("bench: metrics.json not deterministic: %d vs %d bytes", len(metricsJSON), len(metricsAgain))
	}
	dir := o.Out
	if dir == "" {
		dir = "."
	}
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	if err := os.WriteFile(tracePath, traceJSON, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(metricsPath, metricsJSON, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "flight-recorder gate (DP all-reduce + hierarchical MoE all-to-all + kill/reform/revive, 2×4 GPUs, oversubscribed fabric)")
	for _, s := range append(summary, "determinism: second run byte-identical") {
		fmt.Fprintln(w, "  "+s)
	}
	fmt.Fprintf(w, "wrote %s (%d bytes) and %s (%d bytes); open trace.json in chrome://tracing or https://ui.perfetto.dev\n",
		tracePath, len(traceJSON), metricsPath, len(metricsJSON))
	return nil
}

// traceScenario executes the scenario once and checks every gate:
// trace-derived byte totals exactly equal the executors' per-transport
// accounting, span counts equal the primitive counts (Completions ×
// NumPrimitives per clean collective), and the chaos path left
// kill/abort/reform/revive marks. It returns the two artifacts and a
// human-readable summary of the reconciliations.
func traceScenario() (traceJSON, metricsJSON []byte, summary []string, err error) {
	n := traceNodes * traceGPUs
	cluster := topo.NewCluster(traceNodes, traceGPUs, topo.RTX3090, topo.DefaultLinks)
	rec := &trace.Recorder{}
	cfg := core.DefaultConfig()
	cfg.Recorder = rec
	cfg.Network = fabric.Shared(cluster, fabric.OversubConfig(traceOversub))
	d := deploy(cluster, cfg)
	sys := d.sys

	ranks := seqRanks(n)
	arSpec := prim.Spec{Kind: prim.AllReduce, Count: traceARElems, Type: mem.Float64, Op: mem.Sum, Ranks: ranks, Algo: prim.AlgoAuto}
	a2aSpec := prim.Spec{Kind: prim.AllToAll, Count: traceA2AElems, Type: mem.Float64, Ranks: ranks, Algo: prim.AlgoHierarchical}

	var (
		iterLatency metrics.Series
		cleanIters  int
		gates       []spanGate
	)
	killed := make([]bool, n)
	start := sim.NewBarrier("bench.barrier", n)

	// runIter launches the DP all-reduce then the MoE all-to-all; a
	// typed ErrRankLost anywhere means the kill landed.
	runIter := func(p *sim.Process, ar, a2a *core.Collective, arS, arR, aS, aR *mem.Buffer) error {
		fut, err := ar.Launch(p, arS, arR)
		if err != nil {
			return err
		}
		if err := fut.Wait(p); err != nil {
			return err
		}
		fut, err = a2a.Launch(p, aS, aR)
		if err != nil {
			return err
		}
		return fut.Wait(p)
	}
	// filled returns a send buffer of count elements holding rank's
	// benchCollVal pattern.
	filled := func(rank, count int) *mem.Buffer {
		b := mem.NewBuffer(mem.Float64, count)
		fillCollVal(rank, b)
		return b
	}

	d.e.Spawn("trace.chaos", func(p *sim.Process) {
		p.Sleep(traceKillAt)
		sys.KillRank(traceVictim)
		for sys.ReviveRank(traceVictim) != nil {
			p.Sleep(5 * sim.Microsecond)
		}
	})
	err = d.run("trace", func(p *sim.Process, rc *core.RankContext) error {
		rank := rc.Rank
		ar, err := rc.Open(arSpec, core.WithCollID(traceARCollID))
		if err != nil {
			return fmt.Errorf("rank %d open ar: %w", rank, err)
		}
		a2a, err := rc.Open(a2aSpec, core.WithCollID(traceA2ACollID))
		if err != nil {
			return fmt.Errorf("rank %d open a2a: %w", rank, err)
		}
		arS, aS := filled(rank, traceARElems), filled(rank, traceA2AElems*n)
		arR := mem.NewBuffer(mem.Float64, traceARElems)
		aR := mem.NewBuffer(mem.Float64, traceA2AElems*n)
		start.Wait(p)
		iters := 0
		for {
			iterStart := p.Now()
			err := runIter(p, ar, a2a, arS, arR, aS, aR)
			if errors.Is(err, core.ErrRankLost) {
				killed[rank] = true
				break
			}
			if err != nil {
				return fmt.Errorf("rank %d iter %d: %w", rank, iters, err)
			}
			if rank == 0 {
				iterLatency.Add(float64(p.Now().Sub(iterStart)))
			}
			iters++
			if iters > traceMaxIters {
				return fmt.Errorf("rank %d: kill never landed after %d iterations", rank, iters)
			}
			p.Sleep(traceCompute)
		}
		if rank == 0 {
			cleanIters = iters
		}
		if rank == traceVictim {
			return nil // dead rank: its context is torn down by the kill
		}
		ar2, err := ar.Reform(p)
		if err != nil {
			return fmt.Errorf("rank %d reform ar: %w", rank, err)
		}
		a2a2, err := a2a.Reform(p)
		if err != nil {
			return fmt.Errorf("rank %d reform a2a: %w", rank, err)
		}
		sn := n - 1
		aS2 := filled(rank, traceA2AElems*sn)
		aR2 := mem.NewBuffer(mem.Float64, traceA2AElems*sn)
		for j := 0; j < traceReformedIters; j++ {
			if err := runIter(p, ar2, a2a2, arS, arR, aS2, aR2); err != nil {
				return fmt.Errorf("rank %d reformed iter %d: %w", rank, j, err)
			}
		}
		// The re-formed collectives ran clean: pin the span-count gate
		// Completions × NumPrimitives before Close retires them.
		for _, c := range []*core.Collective{ar2, a2a2} {
			st := c.Stats()
			gates = append(gates, spanGate{coll: c.ID(), gpu: rank, want: st.Completions * st.NumPrimitives})
			if st.PrimsExecuted != st.Completions*st.NumPrimitives {
				return fmt.Errorf("rank %d coll %d: executed %d primitives, want %d×%d",
					rank, c.ID(), st.PrimsExecuted, st.Completions, st.NumPrimitives)
			}
			if err := c.Close(p); err != nil {
				return fmt.Errorf("rank %d close %d: %w", rank, c.ID(), err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("bench: trace scenario: %w", err)
	}
	for rank := 0; rank < n; rank++ {
		if !killed[rank] {
			return nil, nil, nil, fmt.Errorf("bench: rank %d never observed the kill", rank)
		}
	}
	if cleanIters < 1 {
		return nil, nil, nil, fmt.Errorf("bench: no clean iterations before the kill")
	}

	// Gate 1 — byte reconciliation: the recorder's summed Sends must
	// exactly equal the executors' per-transport accounting.
	local, shm, rdma := rec.SendBytesBy()
	counters := sys.Metrics()
	if int64(local) != counters["prim.bytes_local"] || int64(shm) != counters["prim.bytes_shm"] || int64(rdma) != counters["prim.bytes_rdma"] {
		return nil, nil, nil, fmt.Errorf("bench: byte reconciliation failed: trace (local %d, shm %d, rdma %d) vs accounting %v",
			local, shm, rdma, counters)
	}

	// Gate 2 — span-count reconciliation: one action span per executed
	// primitive, system-wide and per clean collective per GPU.
	if got, want := int64(len(rec.Actions)), counters["prim.prims_executed"]; got != want {
		return nil, nil, nil, fmt.Errorf("bench: span count %d != primitives executed %d", got, want)
	}
	perCollGPU := make(map[[2]int]int)
	for _, a := range rec.Actions {
		perCollGPU[[2]int{a.Coll, a.GPU}]++
	}
	for _, g := range gates {
		if got := perCollGPU[[2]int{g.coll, g.gpu}]; got != g.want {
			return nil, nil, nil, fmt.Errorf("bench: coll %d gpu %d: %d spans, want Completions×NumPrimitives = %d",
				g.coll, g.gpu, got, g.want)
		}
	}

	// Gate 3 — chaos and tuning marks on the timeline.
	for _, m := range []struct {
		kind trace.MarkKind
		want int
	}{
		{trace.MarkKill, 1},
		{trace.MarkRevive, 1},
		{trace.MarkAbort, 2},            // both groups abort on the kill
		{trace.MarkReform, 2 * (n - 1)}, // each survivor re-forms both
	} {
		if got := rec.MarkCount(m.kind); got != m.want {
			return nil, nil, nil, fmt.Errorf("bench: %v marks = %d, want %d", m.kind, got, m.want)
		}
	}
	if rec.MarkCount(trace.MarkTunePick) == 0 {
		return nil, nil, nil, fmt.Errorf("bench: no tune-pick marks despite AlgoAuto opens")
	}

	// Gate 4 — fabric flow spans: the oversubscribed shared fabric must
	// have priced transfers as flows on the recorder's timeline.
	if len(rec.Flows) == 0 {
		return nil, nil, nil, fmt.Errorf("bench: no fabric flow events on a shared fabric")
	}

	var tr bytes.Buffer
	if err := rec.WriteChromeTrace(&tr); err != nil {
		return nil, nil, nil, fmt.Errorf("bench: write trace: %w", err)
	}
	if !json.Valid(tr.Bytes()) {
		return nil, nil, nil, fmt.Errorf("bench: trace.json is not valid JSON")
	}

	metricsJSON, err = json.MarshalIndent(traceMetrics{
		Counters: counters,
		Histograms: map[string]histSummary{"workload.iter_latency_ns": {
			N: iterLatency.Len(), Mean: iterLatency.Mean(), P50: iterLatency.Percentile(50),
			P95: iterLatency.Percentile(95), P99: iterLatency.Percentile(99), Max: iterLatency.Percentile(100),
		}},
	}, "", "  ")
	if err != nil {
		return nil, nil, nil, fmt.Errorf("bench: dump metrics: %w", err)
	}
	metricsJSON = append(metricsJSON, '\n')

	summary = []string{
		fmt.Sprintf("clean iterations before kill: %d; reformed iterations: %d over %d survivors", cleanIters, traceReformedIters, n-1),
		fmt.Sprintf("bytes reconciled: local %d, shm %d, rdma %d", local, shm, rdma),
		fmt.Sprintf("action spans reconciled: %d (= primitives executed)", len(rec.Actions)),
		fmt.Sprintf("fabric: %d flow events, %d saturation intervals", len(rec.Flows), len(rec.Sats)),
		fmt.Sprintf("marks: kill %d, abort %d, reform %d, revive %d, tune-pick %d",
			rec.MarkCount(trace.MarkKill), rec.MarkCount(trace.MarkAbort), rec.MarkCount(trace.MarkReform),
			rec.MarkCount(trace.MarkRevive), rec.MarkCount(trace.MarkTunePick)),
		fmt.Sprintf("iteration latency: p50 %.0fns p95 %.0fns p99 %.0fns over %d samples",
			iterLatency.Percentile(50), iterLatency.Percentile(95), iterLatency.Percentile(99), iterLatency.Len()),
	}
	return tr.Bytes(), metricsJSON, summary, nil
}

// traceMetrics is the shape of metrics.json: the deployment's counters
// plus histogram summaries of the workload's own series. encoding/json
// sorts map keys, so the bytes are canonical.
type traceMetrics struct {
	Counters   core.Counters          `json:"counters"`
	Histograms map[string]histSummary `json:"histograms"`
}

// histSummary is one histogram in metrics.json: sample count plus
// nearest-rank percentiles, all observed values.
type histSummary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// traceProbeCell is the launch-path probe: one small single-node ring
// all-reduce.
var traceProbeCell = cell{shape: shape{1, 4}, kind: prim.AllReduce, count: 256, algo: prim.AlgoRing}

// TraceProbe runs traceProbeCell with the given recorder (nil =
// recording off) and returns its virtual end-to-end latency.
// BenchmarkTraceProbe_* loop it with b.ReportAllocs to pin the
// nil-recorder launch path's host-side allocation count next to the
// recorded path's, and TraceOverheadCells uses full cells to pin the
// zero observer effect in virtual time.
func TraceProbe(rec *trace.Recorder) (sim.Duration, error) {
	c := traceProbeCell
	c.rec = rec
	row, _, err := measure(c)
	return row.E2E, err
}

// TraceOverheadCells pins the flight recorder's observer effect for
// the benchmark matrix: each cell runs a collective with and without
// the recorder installed and reports the virtual-latency delta, which
// must be exactly 0 — recording happens outside virtual time, so a
// traced deployment measures bit-identically to an untraced one. (The
// host-side cost of the nil-recorder path is pinned separately, by
// LaunchPathAllocCell and BenchmarkTraceProbe_NilRecorder.)
func TraceOverheadCells() ([]BenchCell, error) {
	var cells []BenchCell
	for _, c := range []cell{
		{shape: shape{2, 4}, kind: prim.AllReduce, count: 1024, algo: prim.AlgoRing},
		{shape: shape{2, 4}, kind: prim.AllReduce, count: 1024, algo: prim.AlgoHierarchical},
		{shape: shape{2, 4}, kind: prim.AllToAll, count: 96, algo: prim.AlgoHierarchical},
	} {
		plain, _, err := measure(c)
		if err != nil {
			return nil, err
		}
		c.rec = &trace.Recorder{}
		traced, _, err := measure(c)
		if err != nil {
			return nil, err
		}
		if len(c.rec.Actions) == 0 || len(c.rec.Sends) == 0 {
			return nil, fmt.Errorf("bench: traced %v/%v run recorded nothing", c.kind, c.algo)
		}
		delta := int64(traced.E2E) - int64(plain.E2E)
		if delta != 0 {
			return nil, fmt.Errorf("bench: tracing perturbed %v/%v: %dns overhead", c.kind, c.algo, delta)
		}
		b := c.benchCell("traceoverhead", traced)
		b.TraceOverheadNs = delta
		cells = append(cells, b)
	}
	return cells, nil
}
