package prim

import (
	"fmt"
	"slices"

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

// Add accumulates another split into this one.
func (t *TransportBytes) Add(o TransportBytes) {
	t.Local += o.Local
	t.SHM += o.SHM
	t.RDMA += o.RDMA
}

// Total is the bytes sent over all transports.
func (t TransportBytes) Total() int { return t.Local + t.SHM + t.RDMA }

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

// Executor runs one rank's primitive sequence for one collective. Its
// exported position fields (Stage, Round, Step, Phase) are the dynamic
// context of Sec. 4.2: saving and restoring them across preemptions
// resumes the collective exactly where it stopped, without under- or
// re-transmission. Everything that lives only while a primitive is in
// flight (where in the primitive it is, what it waits for, until when) is
// not here but in the Runner that runs it: the context is what a preempted
// collective keeps, the Runner is the registers of the kernel running it.
type Executor struct {
	Spec Spec
	Pos  int // position within Spec.Ranks
	// Seq is the collective's plan, shared with every other position's
	// executor and read at Pos; the executor never writes it.
	Seq *Sequence

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

	// last is (Stage+1, Round, Step) of the primitive that completed last
	// since Reset, zero when none has: every completed primitive must lie
	// strictly beyond it.
	last [3]int32

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
	// lay and work are what every primitive reads at Pos: its layout of
	// Seq and its working buffer (Sequence.work).
	lay  *layout
	work home
	// runner runs StepOnce's primitives; callers that drive a Runner of
	// their own never make one.
	runner *Runner

	// Stats.
	PrimsExecuted int
	SpinAborts    int
	// BytesSentBy counts the wire bytes this executor wrote to its send
	// connectors across all runs, by the transport of the path each
	// chunk was sent over (SHM vs RDMA vs device-local) — observed ring
	// traffic, including store-and-forward forwarding hops, accumulated
	// in TimingOnly mode too (the chunks are merely empty). Its Total is
	// what padding actually costs: a padded all-to-all pays for its zero
	// tails on every hop.
	BytesSentBy TransportBytes
}

// buf returns the buffer h names.
func (x *Executor) buf(h home) *mem.Buffer {
	switch h {
	case inSend:
		return x.SendBuf
	case inScratch:
		return x.scratch
	}
	return x.RecvBuf
}

// elems returns the bytes of r, a range of segment seg, in the buffer the
// segment lives in.
func (x *Executor) elems(seg int, r segRange) []byte {
	return x.buf(x.home(seg)).Slice(r.Lo, r.Hi)
}

// home returns the buffer segment seg lives in.
func (x *Executor) home(seg int) home {
	switch inPlace := x.lay.inPlace; {
	case seg < inPlace:
		return inSend
	case seg < 2*inPlace:
		return inRecv
	}
	return x.work
}

// seg returns segment i of the executor's position.
func (x *Executor) seg(i int) segRange {
	if x.lay.segs == nil {
		return x.Seq.countedSeg(x.Pos, i)
	}
	return x.lay.segs[i]
}

// slice returns the element range of segment seg covered in round c,
// clipped to the first elems elements of the segment: an action's
// SendElems for its send half, RecvElems for its recv half. Both ends of
// a transfer compute the block's chunking from the same block length, so
// a short block in an oversized transit slot still slices identically on
// sender and receiver; rounds past the block's end yield empty slices,
// which still move (zero-length) chunks through the connectors.
func (x *Executor) slice(seg, c, elems int) segRange {
	lo, chunk := x.seg(seg).Lo, x.Seq.chunkElems
	limit := lo + elems
	lo += c * chunk
	return segRange{Lo: min(lo, limit), Hi: min(lo+chunk, limit)}
}

// NumPrimitives returns the primitive count of one run at the executor's
// position (Sequence.NumPrimitives).
func (x *Executor) NumPrimitives() int { return x.Seq.NumPrimitives(x.Pos) }

// Reset prepares the executor for a fresh run of the same collective
// (a new invocation via dfcclRun*), possibly with different buffers —
// the "static context can change across multiple calls" case.
func (x *Executor) Reset(sendBuf, recvBuf *mem.Buffer) {
	x.SendBuf, x.RecvBuf = sendBuf, recvBuf
	x.Stage, x.Round, x.Step, x.Phase = 0, 0, 0, 0
	x.Initialized = false
	x.last = [3]int32{}
}

// Finished reports completion of all stages and rounds.
func (x *Executor) Finished() bool {
	return x.Initialized && x.Stage >= len(x.lay.Stages)
}

func (x *Executor) computeCost(bytes int) sim.Duration {
	if bytes <= 0 || x.ComputeBW <= 0 {
		return 0
	}
	return sim.Duration(float64(bytes) / x.ComputeBW * 1e9)
}

// initCopy is the sequence's init copy: it reports the bytes the copy is
// priced by (ok false when the sequence has none) and, once the sleep that
// charges them is over (move), performs it.
func (x *Executor) initCopy(move bool) (bytes int, ok bool) {
	q, pos := x.Seq, x.Pos
	ownSeg, work := q.ownSeg(pos), x.work
	if ownSeg == initCopyNone {
		return 0, false
	}
	if x.Spec.TimingOnly {
		sendCount, _ := BufferCountsFor(x.Spec, x.Pos)
		return sendCount * x.Spec.Type.Size(), true
	}
	src := x.SendBuf.Bytes()
	switch ownSeg {
	case initCopyWhole: // whole send buffer into the working buffer
		// A scratch this copy overwrites whole is not allocated (and
		// zeroed) ahead of its first run: it starts life as the copy.
		fresh := work == inScratch && x.scratch == nil
		workBytes := q.workLen(pos) * x.Spec.Type.Size()
		if !fresh {
			workBytes = len(x.buf(work).Bytes())
		}
		if workBytes != len(src) {
			panic(fmt.Sprintf("prim: %v init copy size mismatch: work=%d send=%d", x.Spec.Kind, workBytes, len(src)))
		}
		if move && fresh {
			x.scratch = x.SendBuf.Clone()
		} else if move {
			dst := x.buf(work).Bytes()
			x.settle(dst)
			copy(dst, src)
		}
	case initCopyPrefix: // whole send buffer into the working-buffer prefix
		dst := x.buf(work).Bytes()
		if len(dst) < len(src) {
			panic(fmt.Sprintf("prim: %v init prefix copy overflow: work=%d send=%d", x.Spec.Kind, len(dst), len(src)))
		}
		if move {
			x.settle(dst[:len(src)])
			copy(dst[:len(src)], src)
		}
	case initCopyInPlace: // the own blocks are the send buffer's
	default: // own contribution into its working-buffer segment
		own := src
		if q.seeded {
			// Only the segment's seed moves; the copy is still priced at
			// the whole send buffer, which the run reads by the end.
			size, workBytes := x.Spec.Type.Size(), len(x.buf(work).Bytes())
			if sendLen := q.seed(pos, len(x.lay.segs)-1).Hi * size; len(src) != sendLen || workBytes != q.workLen(pos)*size {
				panic(fmt.Sprintf("prim: %v init copy size mismatch: work=%d send=%d, want %d and %d",
					x.Spec.Kind, workBytes, len(src), q.workLen(pos)*size, sendLen))
			}
			sd := q.seed(pos, ownSeg)
			own = src[sd.Lo*size : sd.Hi*size]
		}
		dst := x.elems(ownSeg, x.seg(ownSeg))
		if len(dst) != len(own) {
			panic(fmt.Sprintf("prim: %v init seg copy size mismatch: seg=%d send=%d", x.Spec.Kind, len(dst), len(own)))
		}
		if move {
			x.settle(dst)
			copy(dst, own)
		}
	}
	return len(src), true
}

// copyOut moves results into the recv buffer after the last round: the
// concatenation of the sequence's copy-out segments (one for
// reduce-scatter, one per origin for all-to-all). Like initCopy it first
// reports the bytes that price it, then (move) performs it. It is priced
// whole, but a segment already at its place in the recv buffer (the flat
// reduce-scatter's one, the all-to-all's final blocks) moves nothing.
func (x *Executor) copyOut(move bool) (bytes int, ok bool) {
	q, pos := x.Seq, x.Pos
	outs := q.outs(pos)
	if outs == 0 {
		return 0, false
	}
	total := 0
	for i := range outs {
		total += x.seg(q.out(pos, i)).len()
	}
	if move && !x.Spec.TimingOnly {
		if total != x.RecvBuf.Len() {
			panic(fmt.Sprintf("prim: %v copy-out covers %d elems, recv holds %d", x.Spec.Kind, total, x.RecvBuf.Len()))
		}
		off := 0
		for i := range outs {
			sg := q.out(pos, i)
			sr := x.seg(sg)
			if x.home(sg) != inRecv || sr.Lo != off {
				dst := x.RecvBuf.Slice(off, off+sr.len())
				x.settle(dst)
				copy(dst, x.elems(sg, sr))
			}
			off += sr.len()
		}
	}
	return total * x.Spec.Type.Size(), true
}

// aborted reports whether the owning runtime has flagged this
// collective dead (AbortCheck is nil for runtimes without elastic
// membership, e.g. the NCCL baseline).
func (x *Executor) aborted() bool {
	return x.AbortCheck != nil && x.AbortCheck()
}

// StepOnce attempts the next primitive with the given spin budget
// (negative = unbounded, NCCL-style). The budget bounds only the
// busy-wait for connector readiness; once ready, the primitive's data
// movement runs to completion (two-phase blocking execution). The
// primitive runs on a Runner the executor keeps for the purpose, so p is
// resumed once, with the outcome.
func (x *Executor) StepOnce(p *sim.Process, spinBudget sim.Duration) StepResult {
	r := x.runner
	if r == nil {
		r = new(Runner)
		x.runner = r
	}
	r.start(p, x, nil, spinBudget)
	p.Await(r)
	return r.result
}

// Pacer is the scheduler's side of a run of primitives (Runner.Start): what
// Algorithm 1 does between two primitives of the collective it is running.
type Pacer interface {
	// Budget is the spin budget of the next primitive's connector waits
	// (negative = unbounded).
	Budget() sim.Duration
	// Progressed is called after every primitive that completed with more
	// of the sequence to follow, before the next one's Budget is asked.
	Progressed()
}

// Runner runs an executor's primitives as a machine that returns each wait
// instead of making it (sim.Stepper): the engine takes the primitive loop's
// turns at the wake-ups of the process the Runner runs for, and resumes
// that process only with an outcome. It holds what lives only while a
// primitive is in flight, the running kernel's registers to the Executor's
// saved context: one Runner serves every executor its owner runs, one at a
// time, and nothing in it outlives a run.
//
// There is one state per wait of the primitive loop, and between two waits
// a state does what a daemon written as blocking code would, in that
// order: entry (abort check, the init copy's sleep, the copy) → action
// (pick the primitive at the cursor) → connector wait (abort check, look,
// wait within the spin budget; at every wake abort check and look again) →
// recv (read, reduce or copy, then the sleep that prices it) → send (byte
// counters, the transfer, then the write) → post (count, record, advance
// the cursor; after the last primitive the copy-out's sleep and the copy).
type Runner struct {
	p      *sim.Process
	x      *Executor
	pacer  Pacer // nil: one primitive, then Progressed
	budget sim.Duration
	result StepResult

	at, then     runState       // where the next turn picks up; where a connector wait goes once ready
	pipelined    bool           // the action forwards what it receives: recv before send
	reading      bool           // the connector wait is for a chunk to read, not a slot to write
	conn         *mem.Connector // the connector waited on
	cond         *sim.Cond      // what wakes that wait
	deadline     sim.Time       // when the spin budget of that wait runs out
	attemptStart sim.Time       // when this attempt at the action began
	stage        *Stage         // the stage at the cursor
	a            Action         // the action at the cursor
	sent         segRange       // what the send in flight writes once it has crossed the wire
	xfer         fabric.Xfer    // that send's transfer
}

// runState is where a Runner's next turn picks up.
type runState uint8

const (
	atEntry     runState = iota // StepOnce's entry
	atInitCopy                  // the init copy's sleep is over
	atAction                    // start the primitive at the cursor
	atCopied                    // a local copy's sleep is over
	atConn                      // look at the connector a half needs: first, and after every wake without a budget
	atSpin                      // still not ready: wait within the spin budget
	atSpinWake                  // woken from that wait
	atRecv                      // a chunk is there to read
	atRecvDone                  // the recv half's sleep is over
	atSend                      // a slot is free to write
	atSending                   // the transfer is under way
	atPost                      // the primitive is complete
	atCopiedOut                 // the copy-out's sleep is over
)

// Start arms r to run x's primitives from its cursor for process p, asking
// pacer for each one's spin budget, until the sequence is complete (Done),
// a connector wait outlasts its budget (Stuck) or the collective is aborted
// (Aborted). The caller hands r's waits on as its own: it calls Next, at
// once and then at every wake-up of p, until Next answers false, and then
// reads Result. Next must not be called again before the next Start.
func (r *Runner) Start(p *sim.Process, x *Executor, pacer Pacer) {
	r.start(p, x, pacer, pacer.Budget())
}

func (r *Runner) start(p *sim.Process, x *Executor, pacer Pacer, budget sim.Duration) {
	r.p, r.x, r.pacer, r.budget, r.at = p, x, pacer, budget, atEntry
}

// Result is the outcome of the run Next just finished; under a Pacer never
// Progressed.
func (r *Runner) Result() StepResult { return r.result }

// end finishes the run with res. A run that is over, Done or Aborted,
// first stages every chunk it lent, so its owner may reuse the buffers as
// soon as it resolves.
func (r *Runner) end(res StepResult) (sim.Wait, bool) {
	if res == Stuck {
		r.x.SpinAborts++
	} else if res != Progressed {
		r.x.settle(nil)
	}
	r.result = res
	return sim.Wait{}, false
}

// await starts the wait for c to have a chunk to read (reading) or a slot
// to write, going on to then once it has.
func (r *Runner) await(c *mem.Connector, reading bool, then runState) {
	r.conn, r.reading, r.then, r.at = c, reading, then, atConn
	if r.cond = c.Writable(); reading {
		r.cond = c.Readable()
	}
}

func (r *Runner) ready() bool {
	if r.reading {
		return r.conn.CanRead()
	}
	return r.conn.CanWrite()
}

// sleep prices bytes of local reduce or copy work as the next wait.
func (r *Runner) sleep(bytes int, then runState) (sim.Wait, bool) {
	r.at = then
	return sim.Wait{D: r.x.computeCost(bytes)}, true
}

// Next is the primitive loop's next turn (sim.Stepper).
func (r *Runner) Next() (sim.Wait, bool) {
	x := r.x
	for {
		switch r.at {
		case atEntry:
			if x.aborted() {
				return r.end(Aborted)
			}
			r.at = atAction
			if !x.Initialized {
				r.at = atInitCopy
				if bytes, ok := x.initCopy(false); ok {
					return r.sleep(bytes, atInitCopy)
				}
			}

		case atInitCopy:
			x.initCopy(true)
			x.Initialized = true
			r.at = atAction
			if x.NumPrimitives() == 0 {
				// Single-rank collective: init (plus copy-out) is all.
				x.Stage = x.Seq.NumStages(x.Pos)
				x.Round = x.Seq.TotalRounds(x.Pos)
				if bytes, ok := x.copyOut(false); ok {
					return r.sleep(bytes, atCopiedOut)
				}
				return r.end(Done)
			}

		case atAction:
			if x.Finished() {
				return r.end(Done)
			}
			r.stage = &x.lay.Stages[x.Stage]
			r.stage.action(x.Pos, x.Step, &r.a)
			a := &r.a
			r.attemptStart = r.p.Now()
			r.pipelined = !a.LocalCopy && a.HasSend() && a.HasRecv() && a.SendSeg == a.RecvSeg
			switch {
			case a.LocalCopy:
				// Connector-free working-buffer copy; cannot block or stick.
				return r.sleep(a.SendElems*x.Spec.Type.Size(), atCopied)
			case r.pipelined && x.Phase == 0:
				// recv → process → send: forwarding actions (broadcast chain,
				// all-gather middle, reduce chain) depend on the incoming chunk.
				r.await(x.Ins[a.RecvConn], true, atRecv)
			case r.pipelined:
				r.await(x.Outs[a.SendConn], false, atSend)
			case a.HasSend() && x.Phase == 0:
				// send ∥ recv on distinct segments: send first so rings prime
				// themselves (classic ring step posts its send before blocking
				// on its receive).
				r.await(x.Outs[a.SendConn], false, atSend)
			case a.HasRecv():
				r.await(x.Ins[a.RecvConn], true, atRecv)
			default:
				r.at = atPost
			}

		case atCopied:
			x.localCopy(&r.a)
			r.at = atPost

		case atConn:
			if x.aborted() {
				return r.end(Aborted)
			}
			if r.ready() {
				r.at = r.then
				continue
			}
			if r.budget < 0 {
				// Wait forever, the NCCL busy-wait mode; even there every
				// wake re-polls AbortCheck, so a daemon blocked on a dead
				// peer's connector unblocks as soon as the kill broadcast
				// lands.
				return sim.Wait{Cond: r.cond, Untimed: true}, true
			}
			r.deadline = r.p.Now().Add(r.budget)
			r.at = atSpin

		case atSpin:
			remaining := r.deadline.Sub(r.p.Now())
			if remaining <= 0 {
				return r.end(Stuck)
			}
			r.at = atSpinWake
			return sim.Wait{Cond: r.cond, D: remaining}, true

		case atSpinWake:
			if x.aborted() {
				return r.end(Aborted)
			}
			switch {
			case r.ready():
				r.at = r.then
			case r.p.TimedOut():
				return r.end(Stuck)
			default:
				r.at = atSpin
			}

		case atRecv:
			return r.sleep(x.recv(r.p.Engine(), &r.a), atRecvDone)

		case atRecvDone:
			r.at = atPost
			if r.pipelined {
				x.Phase = 1
				r.await(x.Outs[r.a.SendConn], false, atSend)
			}

		case atSend:
			r.sent = x.beginSend(r.p, &r.a, &r.xfer)
			r.at = atSending

		case atSending:
			if w, again := r.xfer.Next(); again {
				return w, true
			}
			out := x.Outs[r.a.SendConn]
			if x.Spec.TimingOnly {
				out.Write(r.p.Engine(), nil)
			} else {
				out.Write(r.p.Engine(), x.elems(r.a.SendSeg, r.sent))
			}
			r.at = atPost
			if !r.pipelined {
				x.Phase = 1
				if r.a.HasRecv() {
					r.await(x.Ins[r.a.RecvConn], true, atRecv)
				}
			}

		case atPost:
			if !x.complete(r) {
				if bytes, ok := x.copyOut(false); ok {
					return r.sleep(bytes, atCopiedOut)
				}
				return r.end(Done)
			}
			if r.pacer == nil {
				return r.end(Progressed)
			}
			r.pacer.Progressed()
			r.budget = r.pacer.Budget()
			r.at = atEntry

		case atCopiedOut:
			x.copyOut(true)
			return r.end(Done)
		}
	}
}

// complete books the primitive the Runner just finished and advances the
// cursor past it; it reports whether the sequence has more.
func (x *Executor) complete(r *Runner) (more bool) {
	x.PrimsExecuted++
	if x.Rec != nil {
		// The span is the completing attempt's contiguous interval: a
		// resumed action (Phase saved at 1 across a preemption) spans
		// only its remainder, matching what actually ran now. The cursor
		// still holds the completed action's position — the same
		// checkpoint the preempt/abort machinery freezes at.
		x.Rec.RecordAction(trace.ActionSpan{
			Start: r.attemptStart, End: r.p.Now(),
			GPU: x.Spec.Ranks[x.Pos], Coll: x.RecColl,
			Stage: x.Stage, Label: r.stage.Label,
			Round: x.Round, Step: x.Step, Phase: x.Phase,
			Transport: x.actionTransport(&r.a), Job: x.Job,
		})
	}
	// A saved context restored wrong (a stale one, another collective's)
	// would run a primitive twice or skip one; the data would be wrong far
	// from here, so say it here.
	done := [3]int32{int32(x.Stage) + 1, int32(x.Round), int32(x.Step)}
	if last := x.last; slices.Compare(done[:], last[:]) <= 0 {
		panic(fmt.Sprintf("prim: %v rank-pos %d completed stage %d round %d step %d after stage %d round %d step %d: the cursor went back",
			x.Spec.Kind, x.Pos, x.Stage, x.Round, x.Step, last[0]-1, last[1], last[2]))
	}
	x.last = done
	x.Phase = 0
	x.Step++
	if x.Step >= r.stage.Len() {
		x.Step = 0
		x.Round++
		if x.Round >= r.stage.Rounds {
			x.Round = 0
			x.Stage++
			return x.Stage < len(x.lay.Stages)
		}
	}
	return true
}

// actionTransport is the wire class of the action's send half
// (device-local for recv-only and copy actions).
func (x *Executor) actionTransport(a *Action) topo.Transport {
	if a.LocalCopy || !a.HasSend() {
		return topo.TransportLocal
	}
	return x.OutRoutes[a.SendConn].Path.Transport
}

// localCopy moves an action's block between segments (whole block,
// independent of chunk rounds) once its compute time is charged.
func (x *Executor) localCopy(a *Action) {
	if x.Spec.TimingOnly || a.SendElems == 0 {
		return
	}
	src, dst := x.seg(a.SendSeg), x.seg(a.RecvSeg)
	src.Hi, dst.Hi = src.Lo+a.SendElems, dst.Lo+a.SendElems
	d := x.elems(a.RecvSeg, dst)
	x.settle(d)
	copy(d, x.elems(a.SendSeg, src))
}

// settle stages the unread chunks x lent out of dst (nil: every one) on
// its send endpoints, before x overwrites dst (mem.Connector.Settle).
func (x *Executor) settle(dst []byte) {
	for _, c := range x.Outs {
		c.Settle(dst)
	}
}

// beginSend accounts the current round's slice of the action's send
// segment (clipped to the block the action moves) and arms
// xfer to charge its serialization and latency on the route through the
// executor's network; the slice is written to the connector once xfer is
// over.
func (x *Executor) beginSend(p *sim.Process, a *Action, xfer *fabric.Xfer) segRange {
	sr := x.slice(a.SendSeg, x.Round, a.SendElems)
	bytes := sr.len() * x.Spec.Type.Size()
	route := x.OutRoutes[a.SendConn]
	x.BytesSentBy.add(route.Path.Transport, bytes)
	if x.Rec != nil {
		// Recorded at the same point BytesSentBy accrues, so summing
		// recorded Sends by transport reconciles exactly — even for
		// sends whose enclosing action is later aborted mid-primitive.
		x.Rec.RecordSend(trace.Send{
			At: p.Now(), GPU: x.Spec.Ranks[x.Pos], Coll: x.RecColl,
			Stage: x.Stage, Round: x.Round, Step: x.Step,
			Transport: route.Path.Transport, Bytes: bytes,
			Job: x.Job,
		})
	}
	xfer.Begin(x.Net, p.Engine(), route, bytes, x.Job)
	return sr
}

// recv consumes a chunk and reduces or copies it into the action's recv
// segment (in a seeded plan, a reduce folds the chunk into the segment's
// own contribution, read straight from the send buffer), and returns the
// bytes that price the work. The data moves before the sleep that charges
// them, because the chunk is only valid until the next wait
// (mem.Connector.Read). Nothing can tell: the segment belongs to this
// executor, which is the one asleep, and a kill or abort is only observed
// at a primitive's entry and in connector waits. The chunks x lent out of
// the segment are staged before the Read, whose chunk is back in the pool
// already: staged after it, one could land in the chunk's memory.
func (x *Executor) recv(e *sim.Engine, a *Action) (bytes int) {
	sr := x.slice(a.RecvSeg, x.Round, a.RecvElems)
	if x.Spec.TimingOnly {
		x.Ins[a.RecvConn].Read(e)
		return sr.len() * x.Spec.Type.Size()
	}
	dst := x.elems(a.RecvSeg, sr)
	x.settle(dst)
	chunk := x.Ins[a.RecvConn].Read(e)
	if len(dst) != len(chunk) {
		panic(fmt.Sprintf("prim: %v rank-pos %d stage %d round %d step %d: chunk %dB vs segment slice %dB",
			x.Spec.Kind, x.Pos, x.Stage, x.Round, x.Step, len(chunk), len(dst)))
	}
	switch {
	case a.Reduce && x.Seq.seeded:
		size := x.Spec.Type.Size()
		own := (x.Seq.seed(x.Pos, a.RecvSeg).Lo + sr.Lo - x.seg(a.RecvSeg).Lo) * size
		mem.ReduceInto(x.Spec.Op, x.Spec.Type, dst, x.SendBuf.Bytes()[own:own+len(dst)], chunk)
	case a.Reduce:
		mem.Reduce(x.Spec.Op, x.Spec.Type, dst, chunk)
	default:
		copy(dst, chunk)
	}
	return len(chunk)
}
