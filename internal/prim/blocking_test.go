package prim

import (
	"fmt"

	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/trace"
)

// The executor as it was while the process running it made every wait
// itself: StepOnce and its six helpers, unchanged but for their names, for
// the seeded plan's init copy, reduce and in-place copy-out, for segments
// that live in the send, recv or scratch buffer, and for a send that
// stages its chunk right after the write, so the reference copies every
// chunk as Write did before chunks were lent. It is the
// reference TestMachineMatchesBlocking holds the Runner to.

// blockingInitialize performs the sequence's init copy, charging compute time.
func (x *Executor) blockingInitialize(p *sim.Process) {
	q, pos := x.Seq, x.Pos
	ownSeg, work := q.ownSeg(pos), x.work
	if x.Spec.TimingOnly {
		if ownSeg != initCopyNone {
			sendCount, _ := BufferCountsFor(x.Spec, x.Pos)
			p.Sleep(x.computeCost(sendCount * x.Spec.Type.Size()))
		}
		x.Initialized = true
		return
	}
	switch ownSeg {
	case initCopyNone:
	case initCopyWhole: // whole send buffer into the working buffer
		src := x.SendBuf.Bytes()
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
		p.Sleep(x.computeCost(len(src)))
		if fresh {
			x.scratch = x.SendBuf.Clone()
		} else {
			copy(x.buf(work).Bytes(), src)
		}
	case initCopyPrefix: // whole send buffer into the working-buffer prefix
		src := x.SendBuf.Bytes()
		dst := x.buf(work).Bytes()
		if len(dst) < len(src) {
			panic(fmt.Sprintf("prim: %v init prefix copy overflow: work=%d send=%d", x.Spec.Kind, len(dst), len(src)))
		}
		p.Sleep(x.computeCost(len(src)))
		copy(dst[:len(src)], src)
	case initCopyInPlace: // the own blocks are read from the send buffer
		p.Sleep(x.computeCost(len(x.SendBuf.Bytes())))
	default: // own contribution into its working-buffer segment
		dst := x.elems(ownSeg, x.seg(ownSeg))
		src := x.SendBuf.Bytes()
		price := len(src) // a seeded plan still pays for the whole send buffer
		if q.seeded {
			// The seeds tile the send buffer.
			size, workBytes := x.Spec.Type.Size(), len(x.buf(work).Bytes())
			if len(src) != q.seed(pos, len(x.lay.segs)-1).Hi*size || workBytes != q.workLen(pos)*size {
				panic(fmt.Sprintf("prim: %v init copy size mismatch: work=%d send=%d", x.Spec.Kind, workBytes, len(src)))
			}
			sd := q.seed(pos, ownSeg)
			src = src[sd.Lo*size : sd.Hi*size]
		}
		if len(dst) != len(src) {
			panic(fmt.Sprintf("prim: %v init seg copy size mismatch: seg=%d send=%d", x.Spec.Kind, len(dst), len(src)))
		}
		p.Sleep(x.computeCost(price))
		copy(dst, src)
	}
	x.Initialized = true
}

// blockingCopyOut moves results from the working buffer into the recv buffer
// after the last round: a concatenation of segments.
func (x *Executor) blockingCopyOut(p *sim.Process) {
	q, pos := x.Seq, x.Pos
	if outs := q.outs(pos); outs > 0 {
		total := 0
		for i := range outs {
			total += x.seg(q.out(pos, i)).len()
		}
		p.Sleep(x.computeCost(total * x.Spec.Type.Size()))
		if x.Spec.TimingOnly {
			return
		}
		off := 0
		for i := range outs {
			sg := q.out(pos, i)
			sr := x.seg(sg)
			if x.home(sg) != inRecv || sr.Lo != off { // else in place already
				copy(x.RecvBuf.Slice(off, off+sr.len()), x.elems(sg, sr))
			}
			off += sr.len()
		}
		if off*x.Spec.Type.Size() != len(x.RecvBuf.Bytes()) {
			panic(fmt.Sprintf("prim: %v copy-out covered %d elems, recv holds %d", x.Spec.Kind, off, x.RecvBuf.Len()))
		}
	}
}

// blockingWaitConn spins (in simulated terms: waits) until ready() is true,
// the budget expires (Stuck), or an abort is observed (Aborted). A
// negative budget means wait forever — the NCCL busy-wait mode — but
// even there every cond wakeup re-polls AbortCheck, so a daemon
// blocked on a dead peer's connector unblocks as soon as the kill
// broadcast lands. Returns Progressed when the condition was met.
func (x *Executor) blockingWaitConn(p *sim.Process, ready func() bool, cond *sim.Cond, budget sim.Duration) StepResult {
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

// blockingStepOnce attempts the next primitive with the given spin budget
// (negative = unbounded, NCCL-style). The budget bounds only the
// busy-wait for connector readiness; once ready, the primitive's data
// movement runs to completion (two-phase blocking execution).
func (x *Executor) blockingStepOnce(p *sim.Process, spinBudget sim.Duration) StepResult {
	if x.aborted() {
		return Aborted
	}
	if !x.Initialized {
		x.blockingInitialize(p)
		if x.NumPrimitives() == 0 {
			// Single-rank collective: init (plus copy-out) is all.
			x.Stage = x.Seq.NumStages(x.Pos)
			x.Round = x.Seq.TotalRounds(x.Pos)
			x.blockingCopyOut(p)
			return Done
		}
	}
	if x.Finished() {
		return Done
	}
	stage := &x.Seq.Stages(x.Pos)[x.Stage]
	a := stage.Action(x.Pos, x.Step)
	attemptStart := p.Now()
	pipelined := !a.LocalCopy && a.HasSend() && a.HasRecv() && a.SendSeg == a.RecvSeg

	switch {
	case a.LocalCopy:
		// Connector-free working-buffer copy; cannot block or stick.
		x.blockingLocalCopy(p, a)
	case pipelined:
		// recv → process → send: forwarding actions (broadcast chain,
		// all-gather middle, reduce chain) depend on the incoming chunk.
		in, out := x.Ins[a.RecvConn], x.Outs[a.SendConn]
		if x.Phase == 0 {
			if r := x.blockingWaitConn(p, in.CanRead, in.Readable(), spinBudget); r != Progressed {
				if r == Stuck {
					x.SpinAborts++
				}
				return r
			}
			x.blockingRecvHalf(p, a)
			x.Phase = 1
		}
		if r := x.blockingWaitConn(p, out.CanWrite, out.Writable(), spinBudget); r != Progressed {
			if r == Stuck {
				x.SpinAborts++
			}
			return r
		}
		x.blockingSendHalf(p, a)
	default:
		// send ∥ recv on distinct segments: send first so rings prime
		// themselves (classic ring step posts its send before blocking
		// on its receive).
		if a.HasSend() && x.Phase == 0 {
			out := x.Outs[a.SendConn]
			if r := x.blockingWaitConn(p, out.CanWrite, out.Writable(), spinBudget); r != Progressed {
				if r == Stuck {
					x.SpinAborts++
				}
				return r
			}
			x.blockingSendHalf(p, a)
			x.Phase = 1
		}
		if a.HasRecv() {
			in := x.Ins[a.RecvConn]
			if r := x.blockingWaitConn(p, in.CanRead, in.Readable(), spinBudget); r != Progressed {
				if r == Stuck {
					x.SpinAborts++
				}
				return r
			}
			x.blockingRecvHalf(p, a)
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
			Transport: x.actionTransport(&a), Job: x.Job,
		})
	}
	x.Phase = 0
	x.Step++
	if x.Step >= stage.Len() {
		x.Step = 0
		x.Round++
		if x.Round >= stage.Rounds {
			x.Round = 0
			x.Stage++
			if x.Stage >= x.Seq.NumStages(x.Pos) {
				x.blockingCopyOut(p)
				return Done
			}
		}
	}
	return Progressed
}

// blockingLocalCopy moves an action's block between segments (whole
// block, independent of chunk rounds), charging compute time.
func (x *Executor) blockingLocalCopy(p *sim.Process, a Action) {
	bytes := a.SendElems * x.Spec.Type.Size()
	p.Sleep(x.computeCost(bytes))
	if x.Spec.TimingOnly || bytes == 0 {
		return
	}
	src, dst := x.seg(a.SendSeg), x.seg(a.RecvSeg)
	src.Hi, dst.Hi = src.Lo+a.SendElems, dst.Lo+a.SendElems
	copy(x.elems(a.RecvSeg, dst), x.elems(a.SendSeg, src))
}

// blockingSendHalf transmits the current round's slice of the action's send
// segment (clipped to the block the action moves),
// charging serialization and latency on the route through the
// executor's network.
func (x *Executor) blockingSendHalf(p *sim.Process, a Action) {
	sr := x.slice(a.SendSeg, x.Round, a.SendElems)
	bytes := sr.len() * x.Spec.Type.Size()
	route := x.OutRoutes[a.SendConn]
	out := x.Outs[a.SendConn]
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
	x.Net.TransferJob(p, route, bytes, x.Job)
	if x.Spec.TimingOnly {
		out.Write(p.Engine(), nil)
		return
	}
	// Staged at once: the reference copies every chunk, as Write did
	// before chunks were lent.
	out.Write(p.Engine(), x.elems(a.SendSeg, sr))
	out.Settle(nil)
}

// blockingRecvHalf consumes a chunk and reduces or copies it into the action's
// recv segment, charging compute time. The data moves before the sleep
// that prices it, because the chunk is only valid until this process
// yields (mem.Connector.Read). Nothing can tell: the segment belongs to
// this executor, whose process is the one asleep, and a kill or abort
// is only observed at StepOnce entry and in connector waits.
func (x *Executor) blockingRecvHalf(p *sim.Process, a Action) {
	chunk := x.Ins[a.RecvConn].Read(p.Engine())
	sr := x.slice(a.RecvSeg, x.Round, a.RecvElems)
	if x.Spec.TimingOnly {
		p.Sleep(x.computeCost(sr.len() * x.Spec.Type.Size()))
		return
	}
	dst := x.elems(a.RecvSeg, sr)
	if len(dst) != len(chunk) {
		panic(fmt.Sprintf("prim: %v rank-pos %d stage %d round %d step %d: chunk %dB vs segment slice %dB",
			x.Spec.Kind, x.Pos, x.Stage, x.Round, x.Step, len(chunk), len(dst)))
	}
	if a.Reduce {
		if x.Seq.seeded && len(dst) > 0 {
			// Seed the slice with the rank's own contribution first.
			size := x.Spec.Type.Size()
			lo := (x.Seq.seed(x.Pos, a.RecvSeg).Lo + x.Round*x.Seq.chunkElems) * size
			copy(dst, x.SendBuf.Bytes()[lo:lo+len(dst)])
		}
		mem.Reduce(x.Spec.Op, x.Spec.Type, dst, chunk)
	} else {
		copy(dst, chunk)
	}
	p.Sleep(x.computeCost(len(chunk)))
}
