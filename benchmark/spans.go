package main

import (
	"time"

	"dfccl/internal/cluster"
	"dfccl/internal/sim"
	"dfccl/internal/trace"
)

// span is one interval recorded by the benchmark's own files around a
// call into the program. Host spans are in µs since the traced phase
// began; virtual spans are in simulated µs since the unit's library was
// built. Spans of one unit share Unit; Parent is the ID of the span
// that caused this one (-1 for a unit).
type span struct {
	Unit    int     `json:"unit"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Clock   string  `json:"clock"` // "host" or "virt"
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Coll    int     `json:"coll"` // -1 when not about one collective
	Rank    int     `json:"rank"` // -1 when not about one rank
}

// tracer collects the traced run's spans and counts in memory; they are
// written out when the benchmark ends. The simulator runs one process
// at a time, so appends from simulated processes need no lock.
type tracer struct {
	t0    time.Time
	unit  int
	spans []span
	rec   *trace.Recorder // this unit's flight recorder

	openUs, closeUs        []float64 // host µs per Open / Close call
	e2eUs, coreUs, queueUs []float64 // virtual µs per (launch, rank)
	actionUs               []float64 // virtual µs per primitive action
	waitUs, sojournUs      []float64 // virtual µs per cluster job
	count                  map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), count: map[string]float64{}}
}

func (t *tracer) add(s span) int {
	s.Unit, s.ID = t.unit, len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) hostUs(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e3 }

func virtUs(d sim.Time) float64 { return float64(d) / 1e3 }

// hostSpan is an open host-clock span; id is -1 when tracing is off.
type hostSpan struct {
	t  *tracer
	id int
}

func (h hostSpan) end() {
	if h.t != nil {
		h.t.spans[h.id].EndUs = h.t.hostUs(time.Now())
	}
}

// The unitEnv methods below are what a unit calls; with tracing off
// each costs one nil check.

func (e *unitEnv) host(name string, parent int) hostSpan {
	if e.tr == nil {
		return hostSpan{id: -1}
	}
	e.tr.unit = e.id
	return hostSpan{e.tr, e.tr.add(span{Parent: parent, Name: name, Clock: "host", StartUs: e.tr.hostUs(time.Now()), Coll: -1, Rank: -1})}
}

func (e *unitEnv) now() time.Time {
	if e.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// recorder installs a fresh flight recorder for the unit.
func (e *unitEnv) recorder() *trace.Recorder {
	if e.tr == nil {
		return nil
	}
	e.tr.rec = &trace.Recorder{}
	return e.tr.rec
}

// call records a non-yielding call into core (Open, Close): its host
// cost, and a zero-length virtual span placing it on the unit's
// timeline.
func (e *unitEnv) call(name string, parent, coll, rank int, began time.Time, at sim.Time) {
	if e.tr == nil {
		return
	}
	us := float64(time.Since(began)) / 1e3
	if name == "open" {
		e.tr.openUs = append(e.tr.openUs, us)
	} else {
		e.tr.closeUs = append(e.tr.closeUs, us)
	}
	e.tr.add(span{Parent: parent, Name: name, Clock: "virt", StartUs: virtUs(at), EndUs: virtUs(at), Coll: coll, Rank: rank})
}

// launch records one rank's launch→completion of one collective.
func (e *unitEnv) launch(parent, coll, rank int, start, end sim.Time, coreExec sim.Duration) {
	if e.tr == nil {
		return
	}
	e2e := virtUs(end) - virtUs(start)
	e.tr.e2eUs = append(e.tr.e2eUs, e2e)
	e.tr.coreUs = append(e.tr.coreUs, float64(coreExec)/1e3)
	e.tr.queueUs = append(e.tr.queueUs, e2e-float64(coreExec)/1e3)
	e.tr.add(span{Parent: parent, Name: "launch-wait", Clock: "virt", StartUs: virtUs(start), EndUs: virtUs(end), Coll: coll, Rank: rank})
}

// jobs records a cluster run's per-job virtual waits and sojourns.
func (e *unitEnv) jobs(rep *cluster.Report) {
	if e.tr == nil {
		return
	}
	for i := range rep.Jobs {
		j := &rep.Jobs[i]
		e.tr.waitUs = append(e.tr.waitUs, float64(j.Wait)/1e3)
		e.tr.sojournUs = append(e.tr.sojournUs, float64(j.Latency)/1e3)
	}
}

// endUnit folds the unit's flight recorder into the run's counts and
// drops it.
func (e *unitEnv) endUnit(elapsed sim.Duration) {
	if e.tr == nil || e.tr.rec == nil {
		return
	}
	t, rec := e.tr, e.tr.rec
	t.count["units"]++
	t.count["actions"] += float64(len(rec.Actions))
	t.count["sends"] += float64(len(rec.Sends))
	t.count["sat_spans"] += float64(len(rec.Sats))
	for _, a := range rec.Actions {
		t.actionUs = append(t.actionUs, float64(a.End-a.Start)/1e3)
	}
	for _, f := range rec.Flows {
		switch f.Kind {
		case trace.FlowStart:
			t.count["flows"]++
		case trace.FlowRate:
			t.count["rate_changes"]++
		}
	}
	for _, s := range rec.Sats {
		if s.Tier == "spine" {
			t.count["spine_sat_ns"] += float64(s.End - s.Start)
		}
	}
	t.count["virt_ns"] += float64(elapsed)
	t.rec = nil
}
