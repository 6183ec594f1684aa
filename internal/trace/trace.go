// Package trace is the flight recorder: it records daemon-kernel
// scheduling events (fetch, schedule, preempt, complete, voluntary
// quit), per-primitive executor action spans, per-send byte records,
// fabric flow and link-saturation events, and membership/tuning marks
// on the virtual timeline, and exports them in the Chrome trace-event
// JSON format so a DFCCL run can be inspected in chrome://tracing or
// Perfetto. Tracing is opt-in via core.Config.Recorder and costs
// nothing when disabled.
//
// The package deliberately imports only internal/sim, internal/topo (for
// the transport tiers) and the standard library, so every layer above it
// (prim, fabric, core, chaos, bench) can feed the same recorder without
// import cycles.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// Kind classifies a daemon event.
type Kind int

const (
	// EvFetch: an SQE was fetched into the task queue.
	EvFetch Kind = iota
	// EvExecute: a collective was scheduled and began executing.
	EvExecute
	// EvPreempt: the collective exhausted a spin threshold and was
	// context-switched out.
	EvPreempt
	// EvComplete: the collective's run finished and a CQE was written.
	EvComplete
	// EvQuit: the daemon kernel voluntarily quit.
	EvQuit
	// EvStart: the daemon kernel (re)started.
	EvStart
)

// String names the daemon event kind.
func (k Kind) String() string {
	switch k {
	case EvFetch:
		return "fetch"
	case EvExecute:
		return "execute"
	case EvPreempt:
		return "preempt"
	case EvComplete:
		return "complete"
	case EvQuit:
		return "quit"
	case EvStart:
		return "start"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded daemon occurrence.
type Event struct {
	At   sim.Time
	GPU  int
	Coll int // -1 for daemon-level events
	Kind Kind
}

// ActionSpan is one completed primitive action of an executor: the
// contiguous virtual-time interval in which the action's completing
// attempt ran, carrying the full dynamic-context cursor (stage label,
// round, step, phase) and the transport its send half used.
type ActionSpan struct {
	Start, End sim.Time
	GPU        int
	Coll       int
	Stage      int
	Label      string // stage label ("intra", "inter-ring", ... ; "" for flat rings)
	Round      int
	Step       int
	Phase      int // phase cursor at completion
	Transport  topo.Transport
	Job        int // owning tenant job ID (0 = untagged single-job run)
}

// Send is one executed send half: the byte-accounting ground truth the
// reconciliation gate compares against Executor.BytesSentBy. A Send is
// recorded even when the surrounding action is later aborted, so
// summing Sends by transport is exact.
type Send struct {
	At        sim.Time
	GPU       int
	Coll      int
	Stage     int
	Round     int
	Step      int
	Transport topo.Transport
	Bytes     int
	Job       int // owning tenant job ID (0 = untagged single-job run)
}

// transportName is the trace's name of a transport tier in the Chrome
// export: "local", "shm" or "rdma".
func transportName(t topo.Transport) string {
	switch t {
	case topo.TransportSHM:
		return "shm"
	case topo.TransportRDMA:
		return "rdma"
	default:
		return "local"
	}
}

// FlowEventKind classifies a fabric flow event.
type FlowEventKind int

const (
	// FlowStart: a transfer joined the shared fabric.
	FlowStart FlowEventKind = iota
	// FlowRate: the max-min fair solve changed the flow's allocation.
	FlowRate
	// FlowEnd: the transfer drained and left the fabric.
	FlowEnd
)

// String names the flow event kind.
func (k FlowEventKind) String() string {
	switch k {
	case FlowStart:
		return "flow-start"
	case FlowRate:
		return "flow-rate"
	case FlowEnd:
		return "flow-end"
	default:
		return fmt.Sprintf("FlowEventKind(%d)", int(k))
	}
}

// FlowEvent is one fabric flow lifecycle point: start (with payload
// size), a rate re-allocation, or finish. Rate is in bytes per virtual
// second, as the fabric's solver allocates it.
type FlowEvent struct {
	At    sim.Time
	ID    int
	Kind  FlowEventKind
	Rate  float64
	Bytes int
	Job   int // owning tenant job ID (0 = untagged single-job run)
}

// SatSpan is one interval during which a shared-fabric link was
// saturated (allocating at full capacity with demand left over).
type SatSpan struct {
	Start, End sim.Time
	Link       string
	Tier       string
}

// MarkKind classifies a membership or tuning mark.
type MarkKind int

const (
	// MarkKill: a rank was killed (chaos fault injection).
	MarkKill MarkKind = iota
	// MarkAbort: a collective aborted because a member rank died.
	MarkAbort
	// MarkReform: survivors re-formed a collective under a new ID.
	MarkReform
	// MarkRevive: a dead rank's slot was revived.
	MarkRevive
	// MarkTunePick: the auto-tuner resolved AlgoAuto to a concrete
	// algorithm at Open time.
	MarkTunePick
)

// String names the control-plane mark kind.
func (k MarkKind) String() string {
	switch k {
	case MarkKill:
		return "kill"
	case MarkAbort:
		return "abort"
	case MarkReform:
		return "reform"
	case MarkRevive:
		return "revive"
	case MarkTunePick:
		return "tune-pick"
	default:
		return fmt.Sprintf("MarkKind(%d)", int(k))
	}
}

// Mark is one instantaneous membership or tuning event: kills, aborts,
// reforms, revives, and tune picks, with a free-form note (the picked
// algorithm, the new collective ID, ...).
type Mark struct {
	At   sim.Time
	Kind MarkKind
	GPU  int // rank concerned, -1 when not rank-scoped
	Coll int // collective concerned, -1 when not collective-scoped
	Note string
}

// Recorder accumulates the full-depth flight-recorder streams — daemon
// scheduling events, action spans, sends, fabric flow events,
// saturation intervals, and membership marks — when threaded through
// core.Config.Recorder. The zero value is ready to use.
//
// The simulation engine is cooperatively scheduled, so all appends
// happen from one goroutine and need no locking.
type Recorder struct {
	Events  []Event
	Actions []ActionSpan
	Sends   []Send
	Flows   []FlowEvent
	Sats    []SatSpan
	Marks   []Mark
}

// Record appends a daemon scheduling event. Events come from the one
// virtual clock, so they arrive in nondecreasing At, the order Spans
// pairs them in; an earlier one panics.
func (r *Recorder) Record(at sim.Time, gpu, coll int, kind Kind) {
	if n := len(r.Events); n > 0 && at < r.Events[n-1].At {
		panic(fmt.Sprintf("trace: event at %v recorded after one at %v", at, r.Events[n-1].At))
	}
	r.Events = append(r.Events, Event{At: at, GPU: gpu, Coll: coll, Kind: kind})
}

// RecordAction appends a completed primitive action span.
func (r *Recorder) RecordAction(a ActionSpan) { r.Actions = append(r.Actions, a) }

// RecordSend appends one executed send half.
func (r *Recorder) RecordSend(s Send) { r.Sends = append(r.Sends, s) }

// RecordFlow appends a fabric flow lifecycle event.
func (r *Recorder) RecordFlow(f FlowEvent) { r.Flows = append(r.Flows, f) }

// RecordSat appends a link-saturation interval.
func (r *Recorder) RecordSat(s SatSpan) { r.Sats = append(r.Sats, s) }

// RecordMark appends a membership or tuning mark.
func (r *Recorder) RecordMark(m Mark) { r.Marks = append(r.Marks, m) }

// CountByKind tallies daemon events per kind.
func (r *Recorder) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range r.Events {
		out[e.Kind]++
	}
	return out
}

// SendBytesBy sums the recorded send halves by transport — the
// trace-derived side of the byte-reconciliation gate.
func (r *Recorder) SendBytesBy() (local, shm, rdma int) {
	for _, s := range r.Sends {
		switch s.Transport {
		case topo.TransportLocal:
			local += s.Bytes
		case topo.TransportSHM:
			shm += s.Bytes
		case topo.TransportRDMA:
			rdma += s.Bytes
		}
	}
	return local, shm, rdma
}

// MarkCount tallies marks of one kind.
func (r *Recorder) MarkCount(kind MarkKind) int {
	n := 0
	for _, m := range r.Marks {
		if m.Kind == kind {
			n++
		}
	}
	return n
}

// Spans reconstructs per-collective execution spans on each GPU: an
// EvExecute opens a span, the next EvPreempt or EvComplete of the same
// (gpu, coll) closes it.
func (r *Recorder) Spans() []Span {
	open := make(map[[2]int]sim.Time)
	var spans []Span
	for _, e := range r.Events {
		key := [2]int{e.GPU, e.Coll}
		switch e.Kind {
		case EvExecute:
			open[key] = e.At
		case EvPreempt, EvComplete:
			if start, ok := open[key]; ok {
				spans = append(spans, Span{
					GPU: e.GPU, Coll: e.Coll,
					Start: start, End: e.At,
					Completed: e.Kind == EvComplete,
				})
				delete(open, key)
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].GPU < spans[j].GPU
	})
	return spans
}

// Span is one contiguous execution of a collective on a GPU.
type Span struct {
	GPU, Coll  int
	Start, End sim.Time
	Completed  bool
}

// chromeEvent is the trace-event JSON schema (subset).
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds (complete events)
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

// Pseudo-process IDs of the non-GPU tracks in the Chrome export. GPU
// tracks use the GPU index itself as pid, so these sit far above any
// real cluster size.
const (
	// FabricPID hosts flow spans (one tid per flow) and link-saturation
	// spans (one tid per link).
	FabricPID = 1 << 20
	// ControlPID hosts membership and tuning marks on a single track.
	ControlPID = 1<<20 + 1
)

// usec converts a virtual timestamp or duration to the trace-event
// microsecond unit.
func usec(t sim.Time) float64 { return float64(t) / 1000 }

// WriteChromeTrace exports the recorded run as a Chrome trace-event
// JSON array with the track layout documented in DESIGN.md: one
// "process" per GPU whose threads are collective IDs (coarse execution
// spans as complete events with per-action spans nested inside by time
// containment), a fabric pseudo-process carrying flow spans and
// link-saturation spans, and a control pseudo-process carrying
// membership/tuning marks as instants. Records keep the order the run
// appended them in, so a deterministic run exports the same bytes.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	var evs []chromeEvent
	for _, s := range r.Spans() {
		name := fmt.Sprintf("coll %d", s.Coll)
		if !s.Completed {
			name += " (preempted)"
		}
		evs = append(evs, chromeEvent{
			Name: name, Cat: "collective", Ph: "X",
			TS:  usec(s.Start),
			Dur: usec(s.End - s.Start),
			PID: s.GPU, TID: s.Coll,
		})
	}
	for _, a := range r.Actions {
		label := a.Label
		if label == "" {
			label = "ring"
		}
		args := map[string]any{
			"stage": a.Stage, "phase": a.Phase, "transport": transportName(a.Transport),
		}
		if a.Job != 0 {
			args["job"] = a.Job
		}
		evs = append(evs, chromeEvent{
			Name: fmt.Sprintf("%s r%d s%d", label, a.Round, a.Step),
			Cat:  "action", Ph: "X",
			TS:  usec(a.Start),
			Dur: usec(a.End - a.Start),
			PID: a.GPU, TID: a.Coll,
			Args: args,
		})
	}
	for _, s := range r.Sends {
		evs = append(evs, chromeEvent{
			Name: fmt.Sprintf("send %dB %s", s.Bytes, transportName(s.Transport)),
			Cat:  "send", Ph: "i",
			TS:  usec(s.At),
			PID: s.GPU, TID: s.Coll,
		})
	}
	for _, e := range r.Events {
		if e.Kind == EvQuit || e.Kind == EvStart {
			evs = append(evs, chromeEvent{
				Name: "daemon " + e.Kind.String(), Cat: "daemon", Ph: "i",
				TS: usec(e.At), PID: e.GPU, TID: 0,
			})
		}
	}
	evs = append(evs, r.fabricEvents()...)
	for _, m := range r.Marks {
		name := m.Kind.String()
		if m.Note != "" {
			name += " " + m.Note
		}
		evs = append(evs, chromeEvent{
			Name: name, Cat: "control", Ph: "i",
			TS: usec(m.At), PID: ControlPID, TID: 0,
			Args: map[string]any{"gpu": m.GPU, "coll": m.Coll},
		})
	}
	evs = append(evs, r.metadataEvents()...)
	enc := json.NewEncoder(w)
	return enc.Encode(evs)
}

// fabricEvents renders the fabric pseudo-process: flow start/end pairs
// become complete spans (tid = flow ID), rate changes become instants
// on the same track, and saturation intervals become complete spans on
// per-link tracks (tid = linkTIDBase + sorted-link index).
func (r *Recorder) fabricEvents() []chromeEvent {
	var evs []chromeEvent
	start := make(map[int]FlowEvent)
	for _, f := range r.Flows {
		switch f.Kind {
		case FlowStart:
			start[f.ID] = f
		case FlowRate:
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("rate %.3f GB/s", f.Rate/1e9),
				Cat:  "flow", Ph: "i",
				TS: usec(f.At), PID: FabricPID, TID: f.ID,
			})
		case FlowEnd:
			if s, ok := start[f.ID]; ok {
				evs = append(evs, chromeEvent{
					Name: fmt.Sprintf("flow %d (%dB)", f.ID, s.Bytes),
					Cat:  "flow", Ph: "X",
					TS:  usec(s.At),
					Dur: usec(f.At - s.At),
					PID: FabricPID, TID: f.ID,
				})
				delete(start, f.ID)
			}
		}
	}
	names := r.satLinkNames()
	for _, s := range r.Sats {
		evs = append(evs, chromeEvent{
			Name: "saturated " + s.Link,
			Cat:  "saturation", Ph: "X",
			TS:  usec(s.Start),
			Dur: usec(s.End - s.Start),
			PID: FabricPID, TID: linkTIDBase + sort.SearchStrings(names, s.Link),
			Args: map[string]any{"tier": s.Tier},
		})
	}
	return evs
}

// linkTIDBase offsets saturation-span thread IDs above any flow ID.
const linkTIDBase = 1 << 24

// satLinkNames returns the sorted distinct link names in Sats.
func (r *Recorder) satLinkNames() []string {
	names := make([]string, len(r.Sats))
	for i, s := range r.Sats {
		names[i] = s.Link
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// metadataEvents names the tracks: GPU processes, the fabric and
// control pseudo-processes, and the per-link saturation threads.
func (r *Recorder) metadataEvents() []chromeEvent {
	meta := func(pid, tid int, key, name string) chromeEvent {
		return chromeEvent{
			Name: key, Cat: "__metadata", Ph: "M",
			PID: pid, TID: tid, Args: map[string]any{"name": name},
		}
	}
	gpus := make([]int, 0, len(r.Events)+len(r.Actions))
	for _, e := range r.Events {
		gpus = append(gpus, e.GPU)
	}
	for _, a := range r.Actions {
		gpus = append(gpus, a.GPU)
	}
	slices.Sort(gpus)
	var evs []chromeEvent
	for _, g := range slices.Compact(gpus) {
		evs = append(evs, meta(g, 0, "process_name", fmt.Sprintf("GPU %d", g)))
	}
	if len(r.Flows) > 0 || len(r.Sats) > 0 {
		evs = append(evs, meta(FabricPID, 0, "process_name", "fabric"))
	}
	for i, name := range r.satLinkNames() {
		evs = append(evs, meta(FabricPID, linkTIDBase+i, "thread_name", "link "+name))
	}
	if len(r.Marks) > 0 {
		evs = append(evs, meta(ControlPID, 0, "process_name", "control"))
	}
	return evs
}
