package prim

import (
	"fmt"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// ConnectorSlots is the ring-buffer depth of inter-GPU connectors,
// matching NCCL's NCCL_STEPS pipeline depth.
const ConnectorSlots = 8

// StepResult is the outcome of attempting one primitive action.
type StepResult int

const (
	// Progressed: the primitive completed; the sequence advanced.
	Progressed StepResult = iota
	// Stuck: the connector condition was not met within the spin
	// budget; the collective should be preempted on this GPU.
	Stuck
	// Done: the whole sequence (all rounds) has completed.
	Done
	// Aborted: AbortCheck reported the collective dead (a participating
	// rank was lost). The dynamic context is left at the exact
	// checkpoint reached; no connector state was touched.
	Aborted
)

// String names the step outcome for diagnostics.
func (r StepResult) String() string {
	switch r {
	case Progressed:
		return "progressed"
	case Stuck:
		return "stuck"
	case Done:
		return "done"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("StepResult(%d)", int(r))
	}
}

// TransportBytes is a per-transport split of wire traffic: how many
// bytes an executor pushed over device-local, intra-node shared-memory,
// and inter-node RDMA paths. The split is what makes the hierarchical
// all-to-all's claim testable: strictly fewer RDMA bytes than the flat
// ring on multi-node clusters.
type TransportBytes struct {
	// Local / SHM / RDMA are bytes sent over device-local, intra-node
	// shared-memory, and inter-node RDMA paths respectively.
	Local, SHM, RDMA int
}

// Total sums the per-transport counters.
func (t TransportBytes) Total() int { return t.Local + t.SHM + t.RDMA }

// Add accumulates another split into this one.
func (t *TransportBytes) Add(o TransportBytes) {
	t.Local += o.Local
	t.SHM += o.SHM
	t.RDMA += o.RDMA
}

func (t *TransportBytes) add(tr topo.Transport, n int) {
	switch tr {
	case topo.TransportSHM:
		t.SHM += n
	case topo.TransportRDMA:
		t.RDMA += n
	default:
		t.Local += n
	}
}

// TraceTransport maps a topo transport onto the flight recorder's
// transport enum (trace sits below topo and cannot import it).
func TraceTransport(tr topo.Transport) trace.Transport {
	switch tr {
	case topo.TransportSHM:
		return trace.TransportSHM
	case topo.TransportRDMA:
		return trace.TransportRDMA
	default:
		return trace.TransportLocal
	}
}

// Executor runs one rank's primitive sequence for one collective. Its
// exported position fields (Stage, Round, Step, Phase) are the dynamic
// context of Sec. 4.2: saving and restoring them across preemptions
// resumes the collective exactly where it stopped, without under- or
// re-transmission.
type Executor struct {
	Spec Spec
	Pos  int // position within Spec.Ranks
	Seq  *Sequence

	// SendBuf and RecvBuf are the user's local buffers (Fig. 5).
	SendBuf, RecvBuf *mem.Buffer
	// Ins receive chunks and Outs send them; an action selects its
	// endpoints with RecvConn/SendConn. Ring executors have exactly one
	// of each — Ins[0] from the ring predecessor, Outs[0] to the
	// successor, the recv/send connectors of Fig. 5. Hierarchical
	// executors add the intra-node mesh and leader-ring endpoints.
	Ins, Outs []*mem.Connector
	// OutRoutes price transfers per send endpoint (OutRoutes[i] matches
	// Outs[i]): the endpoint-to-endpoint Path plus the shared fabric
	// links the transfer crosses, if any.
	OutRoutes []fabric.Route
	// Net prices each send: as a flow contending with concurrent
	// transfers on a fabric.Shared network, at the path's isolated
	// TransferTime on a fabric.Unshared one.
	Net *fabric.Network
	// ComputeBW prices local reduce/copy work in bytes/second.
	ComputeBW float64

	// Dynamic context. Stage indexes the sequence's stages (always 0
	// mid-run for flat ring sequences); Round and Step walk one stage.
	Stage, Round, Step int
	// Phase is the intra-action position: 0 = nothing done yet,
	// 1 = send half complete, awaiting recv half.
	Phase       int
	Initialized bool

	// AbortCheck, when non-nil, is polled at StepOnce entry and at
	// every connector-wait wakeup. When it reports true the executor
	// returns Aborted without touching connector state, leaving
	// (Stage, Round, Step, Phase) at the checkpoint reached — the same
	// positions the preempt/resume machinery already saves, which is
	// what makes rank loss observable at well-defined points instead of
	// mid-primitive.
	AbortCheck func() bool

	// Rec, when non-nil, receives one trace.ActionSpan per completed
	// primitive action and one trace.Send per executed send half, under
	// collective ID RecColl. The owning runtime assigns both after
	// construction; nil (the default) keeps the launch path free of
	// recording branches' costs — no allocations, one predictable
	// branch per primitive.
	Rec     *trace.Recorder
	RecColl int

	// Job is the tenant job ID the executor's collective belongs to
	// (0 = untagged single-job run). It tags recorded action spans and
	// sends, and attributes fabric transfers to the job for per-tenant
	// accounting. The owning runtime assigns it after construction.
	Job int

	scratch *mem.Buffer

	// Stats.
	PrimsExecuted int
	SpinAborts    int
	// BytesSent counts the wire bytes this executor wrote to its send
	// connectors across all runs — observed ring traffic, including
	// store-and-forward forwarding hops, accumulated in TimingOnly mode
	// too (the chunks are merely empty). It is what padding actually
	// costs: a padded all-to-all pays for its zero tails on every hop.
	BytesSent int
	// BytesSentBy splits BytesSent by the transport of the path each
	// chunk was sent over (SHM vs RDMA vs device-local).
	BytesSentBy TransportBytes
}

// work returns the working buffer the sequence operates on.
func (x *Executor) work() *mem.Buffer {
	if x.Seq.useScratch {
		return x.scratch
	}
	return x.RecvBuf
}

// Reset prepares the executor for a fresh run of the same collective
// (a new invocation via dfcclRun*), possibly with different buffers —
// the "static context can change across multiple calls" case.
func (x *Executor) Reset(sendBuf, recvBuf *mem.Buffer) {
	x.SendBuf, x.RecvBuf = sendBuf, recvBuf
	x.Stage, x.Round, x.Step, x.Phase = 0, 0, 0, 0
	x.Initialized = false
}

// Finished reports completion of all stages and rounds.
func (x *Executor) Finished() bool {
	return x.Initialized && x.Stage >= x.Seq.NumStages()
}

func (x *Executor) computeCost(bytes int) sim.Duration {
	if bytes <= 0 || x.ComputeBW <= 0 {
		return 0
	}
	return sim.Duration(float64(bytes) / x.ComputeBW * 1e9)
}

// initialize performs the sequence's init copy, charging compute time.
func (x *Executor) initialize(p *sim.Process) {
	if x.Spec.TimingOnly {
		if x.Seq.initCopyOwnSeg != initCopyNone {
			sendCount, _ := BufferCountsFor(x.Spec, x.Pos)
			p.Sleep(x.computeCost(sendCount * x.Spec.Type.Size()))
		}
		x.Initialized = true
		return
	}
	switch x.Seq.initCopyOwnSeg {
	case initCopyNone:
	case initCopyWhole: // whole send buffer into the working buffer
		src := x.SendBuf.Bytes()
		// A scratch this copy overwrites whole is not allocated (and
		// zeroed) ahead of its first run: it starts life as the copy.
		fresh := x.Seq.useScratch && x.scratch == nil
		workBytes := x.Seq.workLen * x.Spec.Type.Size()
		if !fresh {
			workBytes = len(x.work().Bytes())
		}
		if workBytes != len(src) {
			panic(fmt.Sprintf("prim: %v init copy size mismatch: work=%d send=%d", x.Spec.Kind, workBytes, len(src)))
		}
		p.Sleep(x.computeCost(len(src)))
		if fresh {
			x.scratch = x.SendBuf.Clone()
		} else {
			copy(x.work().Bytes(), src)
		}
	case initCopyPrefix: // whole send buffer into the working-buffer prefix
		src := x.SendBuf.Bytes()
		dst := x.work().Bytes()
		if len(dst) < len(src) {
			panic(fmt.Sprintf("prim: %v init prefix copy overflow: work=%d send=%d", x.Spec.Kind, len(dst), len(src)))
		}
		p.Sleep(x.computeCost(len(src)))
		copy(dst[:len(src)], src)
	default: // own contribution into its working-buffer segment
		sr := x.Seq.segs[x.Seq.initCopyOwnSeg]
		dst := x.work().Slice(sr.Lo, sr.Hi)
		src := x.SendBuf.Bytes()
		if len(dst) != len(src) {
			panic(fmt.Sprintf("prim: %v init seg copy size mismatch: seg=%d send=%d", x.Spec.Kind, len(dst), len(src)))
		}
		p.Sleep(x.computeCost(len(src)))
		copy(dst, src)
	}
	x.Initialized = true
}

// copyOut moves results from the working buffer into the recv buffer
// after the last round: a single segment (reduce-scatter) or a
// concatenation of segments (all-to-all).
func (x *Executor) copyOut(p *sim.Process) {
	if len(x.Seq.copyOutSegs) > 0 {
		total := 0
		for _, sg := range x.Seq.copyOutSegs {
			total += x.Seq.segs[sg].len()
		}
		p.Sleep(x.computeCost(total * x.Spec.Type.Size()))
		if x.Spec.TimingOnly {
			return
		}
		off := 0
		for _, sg := range x.Seq.copyOutSegs {
			sr := x.Seq.segs[sg]
			copy(x.RecvBuf.Slice(off, off+sr.len()), x.work().Slice(sr.Lo, sr.Hi))
			off += sr.len()
		}
		if off*x.Spec.Type.Size() != len(x.RecvBuf.Bytes()) {
			panic(fmt.Sprintf("prim: %v copy-out covered %d elems, recv holds %d", x.Spec.Kind, off, x.RecvBuf.Len()))
		}
		return
	}
	if x.Seq.copyOutSeg < 0 {
		return
	}
	sr := x.Seq.segs[x.Seq.copyOutSeg]
	if x.Spec.TimingOnly {
		p.Sleep(x.computeCost(sr.len() * x.Spec.Type.Size()))
		return
	}
	src := x.work().Slice(sr.Lo, sr.Hi)
	dst := x.RecvBuf.Bytes()
	if len(dst) != len(src) {
		panic(fmt.Sprintf("prim: copy-out size mismatch: seg=%d recv=%d", len(src), len(dst)))
	}
	p.Sleep(x.computeCost(len(src)))
	copy(dst, src)
}

// aborted reports whether the owning runtime has flagged this
// collective dead (AbortCheck is nil for runtimes without elastic
// membership, e.g. the NCCL baseline).
func (x *Executor) aborted() bool {
	return x.AbortCheck != nil && x.AbortCheck()
}

// waitConn spins (in simulated terms: waits) until ready() is true,
// the budget expires (Stuck), or an abort is observed (Aborted). A
// negative budget means wait forever — the NCCL busy-wait mode — but
// even there every cond wakeup re-polls AbortCheck, so a daemon
// blocked on a dead peer's connector unblocks as soon as the kill
// broadcast lands. Returns Progressed when the condition was met.
func (x *Executor) waitConn(p *sim.Process, ready func() bool, cond *sim.Cond, budget sim.Duration) StepResult {
	if x.aborted() {
		return Aborted
	}
	if ready() {
		return Progressed
	}
	if budget < 0 {
		for !ready() {
			cond.Wait(p)
			if x.aborted() {
				return Aborted
			}
		}
		return Progressed
	}
	deadline := p.Now().Add(budget)
	for !ready() {
		remaining := deadline.Sub(p.Now())
		if remaining <= 0 {
			return Stuck
		}
		timedOut := cond.WaitTimeout(p, remaining)
		if x.aborted() {
			return Aborted
		}
		if timedOut && !ready() {
			return Stuck
		}
	}
	return Progressed
}

// StepOnce attempts the next primitive with the given spin budget
// (negative = unbounded, NCCL-style). The budget bounds only the
// busy-wait for connector readiness; once ready, the primitive's data
// movement runs to completion (two-phase blocking execution).
func (x *Executor) StepOnce(p *sim.Process, spinBudget sim.Duration) StepResult {
	if x.aborted() {
		return Aborted
	}
	if !x.Initialized {
		x.initialize(p)
		if x.Seq.totalActions() == 0 {
			// Single-rank collective: init (plus copy-out) is all.
			x.Stage = x.Seq.NumStages()
			x.Round = x.Seq.TotalRounds()
			x.copyOut(p)
			return Done
		}
	}
	if x.Finished() {
		return Done
	}
	stage := x.Seq.stageAt(x.Stage)
	a := stage.Actions[x.Step]
	attemptStart := p.Now()
	pipelined := !a.LocalCopy && a.HasSend() && a.HasRecv() && a.SendSeg == a.RecvSeg

	switch {
	case a.LocalCopy:
		// Connector-free working-buffer copy; cannot block or stick.
		x.localCopy(p, a)
	case pipelined:
		// recv → process → send: forwarding actions (broadcast chain,
		// all-gather middle, reduce chain) depend on the incoming chunk.
		in, out := x.Ins[a.RecvConn], x.Outs[a.SendConn]
		if x.Phase == 0 {
			if r := x.waitConn(p, in.CanRead, in.Readable(), spinBudget); r != Progressed {
				if r == Stuck {
					x.SpinAborts++
				}
				return r
			}
			x.recvHalf(p, a)
			x.Phase = 1
		}
		if r := x.waitConn(p, out.CanWrite, out.Writable(), spinBudget); r != Progressed {
			if r == Stuck {
				x.SpinAborts++
			}
			return r
		}
		x.sendHalf(p, a)
	default:
		// send ∥ recv on distinct segments: send first so rings prime
		// themselves (classic ring step posts its send before blocking
		// on its receive).
		if a.HasSend() && x.Phase == 0 {
			out := x.Outs[a.SendConn]
			if r := x.waitConn(p, out.CanWrite, out.Writable(), spinBudget); r != Progressed {
				if r == Stuck {
					x.SpinAborts++
				}
				return r
			}
			x.sendHalf(p, a)
			x.Phase = 1
		}
		if a.HasRecv() {
			in := x.Ins[a.RecvConn]
			if r := x.waitConn(p, in.CanRead, in.Readable(), spinBudget); r != Progressed {
				if r == Stuck {
					x.SpinAborts++
				}
				return r
			}
			x.recvHalf(p, a)
		}
	}

	x.PrimsExecuted++
	if x.Rec != nil {
		// The span is the completing attempt's contiguous interval: a
		// resumed action (Phase saved at 1 across a preemption) spans
		// only its remainder, matching what actually ran now. The cursor
		// still holds the completed action's position — the same
		// checkpoint the preempt/abort machinery freezes at.
		x.Rec.RecordAction(trace.ActionSpan{
			Start: attemptStart, End: p.Now(),
			GPU: x.Spec.Ranks[x.Pos], Coll: x.RecColl,
			Stage: x.Stage, Label: stage.Label,
			Round: x.Round, Step: x.Step, Phase: x.Phase,
			Transport: x.actionTransport(a), Job: x.Job,
		})
	}
	x.Phase = 0
	x.Step++
	if x.Step >= len(stage.Actions) {
		x.Step = 0
		x.Round++
		if x.Round >= stage.Rounds {
			x.Round = 0
			x.Stage++
			if x.Stage >= x.Seq.NumStages() {
				x.copyOut(p)
				return Done
			}
		}
	}
	return Progressed
}

// actionTransport is the wire class of the action's send half
// (device-local for recv-only and copy actions).
func (x *Executor) actionTransport(a Action) trace.Transport {
	if a.LocalCopy || !a.HasSend() {
		return trace.TransportLocal
	}
	return TraceTransport(x.OutRoutes[a.SendConn].Path.Transport)
}

// localCopy moves an action's block between working-buffer segments
// (whole block, independent of chunk rounds), charging compute time.
func (x *Executor) localCopy(p *sim.Process, a Action) {
	bytes := a.SendElems * x.Spec.Type.Size()
	p.Sleep(x.computeCost(bytes))
	if x.Spec.TimingOnly || bytes == 0 {
		return
	}
	src := x.Seq.segs[a.SendSeg]
	dst := x.Seq.segs[a.RecvSeg]
	copy(x.work().Slice(dst.Lo, dst.Lo+a.SendElems), x.work().Slice(src.Lo, src.Lo+a.SendElems))
}

// sendHalf transmits the current round's slice of the action's send
// segment (clipped to the in-flight block in ragged sequences),
// charging serialization and latency on the route through the
// executor's network.
func (x *Executor) sendHalf(p *sim.Process, a Action) {
	sr := x.Seq.sendSlice(a, x.Round)
	bytes := sr.len() * x.Spec.Type.Size()
	route := x.OutRoutes[a.SendConn]
	out := x.Outs[a.SendConn]
	x.BytesSent += bytes
	x.BytesSentBy.add(route.Path.Transport, bytes)
	if x.Rec != nil {
		// Recorded at the same point BytesSentBy accrues, so summing
		// recorded Sends by transport reconciles exactly — even for
		// sends whose enclosing action is later aborted mid-primitive.
		x.Rec.RecordSend(trace.Send{
			At: p.Now(), GPU: x.Spec.Ranks[x.Pos], Coll: x.RecColl,
			Stage: x.Stage, Round: x.Round, Step: x.Step,
			Transport: TraceTransport(route.Path.Transport), Bytes: bytes,
			Job: x.Job,
		})
	}
	x.Net.TransferJob(p, route, bytes, x.Job)
	if x.Spec.TimingOnly {
		out.Write(p.Engine(), nil)
		return
	}
	out.Write(p.Engine(), x.work().Slice(sr.Lo, sr.Hi))
}

// recvHalf consumes a chunk and reduces or copies it into the action's
// recv segment, charging compute time. The data moves before the sleep
// that prices it, because the chunk is only valid until this process
// yields (mem.Connector.Read). Nothing can tell: the segment belongs to
// this executor, whose process is the one asleep, and a kill or abort
// is only observed at StepOnce entry and in connector waits.
func (x *Executor) recvHalf(p *sim.Process, a Action) {
	chunk := x.Ins[a.RecvConn].Read(p.Engine())
	sr := x.Seq.recvSlice(a, x.Round)
	if x.Spec.TimingOnly {
		p.Sleep(x.computeCost(sr.len() * x.Spec.Type.Size()))
		return
	}
	dst := x.work().Slice(sr.Lo, sr.Hi)
	if len(dst) != len(chunk) {
		panic(fmt.Sprintf("prim: %v rank-pos %d stage %d round %d step %d: chunk %dB vs segment slice %dB",
			x.Spec.Kind, x.Pos, x.Stage, x.Round, x.Step, len(chunk), len(dst)))
	}
	if a.Reduce {
		mem.Reduce(x.Spec.Op, x.Spec.Type, dst, chunk)
	} else {
		copy(dst, chunk)
	}
	p.Sleep(x.computeCost(len(chunk)))
}
