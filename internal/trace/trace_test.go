// External test package: core imports trace (the recorder hook), so an
// in-package test importing core would be an import cycle.
package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dfccl/internal/core"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// runTraced executes a small disordered DFCCL workload with a recorder
// attached and returns it.
func runTraced(t *testing.T) *trace.Recorder {
	t.Helper()
	rec := &trace.Recorder{}
	cfg := core.DefaultConfig()
	cfg.Recorder = rec
	e := sim.NewEngine()
	e.MaxTime = sim.Time(60 * sim.Second)
	sys := core.NewSystem(e, topo.Server3090(2), cfg)
	for rank := 0; rank < 2; rank++ {
		rank := rank
		e.Spawn("app", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			var colls [2]*core.Collective
			for c := range colls {
				var err error
				colls[c], err = rc.Open(prim.Spec{Kind: prim.AllReduce, Count: 1024, Type: mem.Float32, Op: mem.Sum, Ranks: []int{0, 1}}, core.WithCollID(c))
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
			order := []int{0, 1}
			if rank == 1 {
				order = []int{1, 0} // disorder forces preemptions
				// Arrive late so rank 0's daemon exhausts its spin
				// thresholds and must preempt.
				p.Sleep(2 * sim.Millisecond)
			}
			for _, c := range order {
				s := mem.NewBuffer(mem.Float32, 1024)
				d := mem.NewBuffer(mem.Float32, 1024)
				if err := colls[c].LaunchCB(p, s, d, nil); err != nil {
					t.Errorf("run: %v", err)
					return
				}
			}
			rc.WaitAll(p)
			rc.Destroy(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rec
}

func TestRecorderCapturesLifecycle(t *testing.T) {
	rec := runTraced(t)
	counts := rec.CountByKind()
	if counts[trace.EvStart] == 0 {
		t.Fatal("no daemon start events")
	}
	if counts[trace.EvFetch] != 4 { // 2 collectives × 2 GPUs
		t.Fatalf("fetch events = %d, want 4", counts[trace.EvFetch])
	}
	if counts[trace.EvComplete] != 4 {
		t.Fatalf("complete events = %d, want 4", counts[trace.EvComplete])
	}
	if counts[trace.EvExecute] < counts[trace.EvComplete] {
		t.Fatal("fewer execute events than completions")
	}
	if counts[trace.EvPreempt] == 0 {
		t.Fatal("disordered workload produced no preemption events")
	}
	// Events must be timestamp-ordered (recorded from one virtual clock).
	for i := 1; i < len(rec.Events); i++ {
		if rec.Events[i].At < rec.Events[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestSpansWellFormed(t *testing.T) {
	rec := runTraced(t)
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans reconstructed")
	}
	completed := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("negative span: %+v", s)
		}
		if s.Completed {
			completed++
		}
	}
	if completed != 4 {
		t.Fatalf("completed spans = %d, want 4", completed)
	}
}

func TestActionSpansRecorded(t *testing.T) {
	rec := runTraced(t)
	if len(rec.Actions) == 0 {
		t.Fatal("no action spans recorded")
	}
	for _, a := range rec.Actions {
		if a.End < a.Start {
			t.Fatalf("negative action span: %+v", a)
		}
		if a.GPU < 0 || a.GPU > 1 {
			t.Fatalf("action span on unknown GPU: %+v", a)
		}
	}
	// Byte reconciliation against the collectives' own accounting: the
	// 2-GPU ring all-reduce moves only SHM bytes.
	local, shm, rdma := rec.SendBytesBy()
	if local != 0 || rdma != 0 {
		t.Fatalf("single-node run recorded local=%d rdma=%d bytes", local, rdma)
	}
	if shm == 0 {
		t.Fatal("no SHM send bytes recorded")
	}
}

func TestChromeTraceExport(t *testing.T) {
	rec := runTraced(t)
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
	phases := map[string]bool{}
	for _, e := range evs {
		for _, field := range []string{"name", "ph", "ts", "pid"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("event missing %q: %v", field, e)
			}
		}
		phases[e["ph"].(string)] = true
	}
	if !phases["X"] || !phases["i"] {
		t.Fatalf("expected complete (X) and instant (i) events, got %v", phases)
	}
	if !phases["M"] {
		t.Fatalf("expected track metadata (M) events, got %v", phases)
	}
}

// TestChromeFlowRateLabel: the fabric records rates in bytes per second;
// the viewer label is in GB/s.
func TestChromeFlowRateLabel(t *testing.T) {
	rec := &trace.Recorder{}
	rec.RecordFlow(trace.FlowEvent{At: 5, ID: 1, Kind: trace.FlowRate, Rate: 11e9})
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"rate 11.000 GB/s"`) {
		t.Fatalf("11e9 B/s not labelled 11.000 GB/s:\n%s", buf.String())
	}
}

// TestChromeTraceDeterministic regenerates the export and requires
// byte-identical output.
func TestChromeTraceDeterministic(t *testing.T) {
	rec := runTraced(t)
	var a, b bytes.Buffer
	if err := rec.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated exports of the same recorder differ")
	}
}

// TestEventsAppendInTimeOrder: Spans pairs execute and preempt events in
// append order, so an event earlier than the last one recorded panics.
func TestEventsAppendInTimeOrder(t *testing.T) {
	rec := &trace.Recorder{}
	rec.Record(5, 0, 1, trace.EvExecute)
	rec.Record(5, 1, 1, trace.EvExecute)
	defer func() {
		if recover() == nil {
			t.Fatal("an event at 4 after one at 5 was accepted")
		}
	}()
	rec.Record(4, 0, 1, trace.EvPreempt)
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[trace.Kind]string{
		trace.EvFetch: "fetch", trace.EvExecute: "execute", trace.EvPreempt: "preempt",
		trace.EvComplete: "complete", trace.EvQuit: "quit", trace.EvStart: "start",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	for k, want := range map[trace.MarkKind]string{
		trace.MarkKill: "kill", trace.MarkAbort: "abort", trace.MarkReform: "reform",
		trace.MarkRevive: "revive", trace.MarkTunePick: "tune-pick",
	} {
		if k.String() != want {
			t.Fatalf("mark %d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// TestChromeTransportNames: records carry topo's transport, and the
// export names its tiers "local", "shm" and "rdma".
func TestChromeTransportNames(t *testing.T) {
	for tr, want := range map[topo.Transport]string{
		topo.TransportLocal: "local", topo.TransportSHM: "shm", topo.TransportRDMA: "rdma",
	} {
		rec := &trace.Recorder{}
		rec.RecordAction(trace.ActionSpan{Start: 1, End: 2, Transport: tr})
		rec.RecordSend(trace.Send{At: 1, Transport: tr, Bytes: 8})
		var buf bytes.Buffer
		if err := rec.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{`"transport":"` + want + `"`, `"send 8B ` + want + `"`} {
			if !strings.Contains(buf.String(), s) {
				t.Errorf("%v: export lacks %s:\n%s", tr, s, buf.String())
			}
		}
	}
}
