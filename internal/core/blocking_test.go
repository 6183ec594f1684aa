package core

import (
	"cmp"
	"slices"

	"dfccl/internal/cudasim"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/trace"
)

// blockingDaemonBody is the daemon kernel as blocking code, the reference
// TestDaemonMatchesBlocking holds the daemon machine to: the body and its
// five helpers below as they were, but for their names, the Runner's run
// made by Start, Await and Result, and the idle poll written as the loop of
// Sleeps it was documented to equal.
func (r *RankContext) blockingDaemonBody(kc *cudasim.KernelCtx) {
	p := kc.Process
	cfg := &r.sys.Config
	p.Sleep(DaemonStartup)
	r.trace(p, -1, trace.EvStart)

	// Rebuild the task queue from contexts in global memory: work that
	// survived a voluntary quit (shared memory is lost across quits;
	// global-memory contexts are not — Sec. 4.5).
	queue := r.rebuildQueue(nil)
	for _, t := range queue {
		r.loadContext(p, t)
	}

	r.lastActivity = p.Now()
	for {
		r.Stats.SchedulerPass++

		// Fetch SQEs per the ordering policy.
		fetched := r.fetchSQEs(p, &queue)
		if fetched < 0 {
			return // exiting SQE: final exit (dfcclDestroy)
		}
		if fetched > 0 {
			r.lastActivity = p.Now()
		}
		if cfg.Order == OrderPriority {
			slices.SortStableFunc(queue, func(a, b *collTask) int {
				return cmp.Compare(b.group.Priority, a.group.Priority)
			})
		}

		// Set initial spin thresholds by queue position (largest at
		// the front — Algorithm 1, line 3).
		for pos, t := range queue {
			t.spin = cfg.Spin.initialThreshold(pos)
		}

		// Traverse the task queue and execute (Algorithm 1, lines 4-15).
		progressed := false
		for i := 0; i < len(queue); i++ {
			t := queue[i]
			if !t.prepared {
				if !t.pending() {
					// Nothing to do (a redundant SQE for an already-
					// drained task): drop it so a later Unregister never
					// leaves a dangling entry in the live queue.
					t.inQueue = false
					queue = append(queue[:i], queue[i+1:]...)
					i--
					continue
				}
				t.exec.Reset(t.runs[t.cur].send, t.runs[t.cur].recv)
				t.prepared = true
				t.dirty = true
			}
			if !t.execStarted {
				t.execStarted = true
				t.ExecStartedAt = p.Now()
			}
			r.loadContext(p, t)
			r.trace(p, t.ID(), trace.EvExecute)
			done, prog := r.executeTask(p, t)
			if prog {
				progressed = true
			}
			if done {
				// Completed runs leave the queue; more pending runs
				// re-enter via their own SQEs already in flight.
				if !t.pending() {
					t.inQueue = false
					queue = append(queue[:i], queue[i+1:]...)
					i--
				}
			}
		}
		if progressed {
			r.lastActivity = p.Now()
			continue
		}

		// Nothing progressed anywhere. Quit voluntarily after the
		// grace period so implicit/explicit GPU synchronization can
		// complete and resources free up (Sec. 4.4); otherwise pause
		// briefly and rescan.
		if p.Now().Sub(r.lastActivity) >= cfg.QuitPeriod {
			for _, t := range queue {
				r.saveContext(p, t)
			}
			r.Stats.VoluntaryQuits++
			r.trace(p, -1, trace.EvQuit)
			// Wake the poller: it notices CQEs lag SQEs and will
			// restart the daemon when appropriate.
			r.pollerWake.Broadcast(p.Engine())
			return
		}
		p.Sleep(IdlePollTime)
	}
}

// fetchSQEs pops SQEs into the task queue according to the ordering
// policy. It returns the number fetched, or -1 when the exiting SQE was
// read.
func (r *RankContext) fetchSQEs(p *sim.Process, queue *[]*collTask) int {
	cfg := &r.sys.Config
	if cfg.Order == OrderFIFO {
		// FIFO: fetch only when the queue is empty or everything has
		// been stuck past the backoff — empty the queue quickly.
		if len(*queue) != 0 && p.Now().Sub(r.lastActivity) < cfg.FetchBackoff {
			return 0
		}
	}
	fetched := 0
	for len(*queue) < cfg.TaskQueueCap {
		sqe, ok := r.sq.TryPop(p.Engine())
		if !ok {
			break
		}
		if cfg.BatchedSQERead && fetched > 0 {
			p.Sleep(BatchedSQEExtraTime)
		} else {
			p.Sleep(ReadSQETime)
		}
		r.Stats.SQEsRead++
		if sqe.Exit {
			return -1
		}
		t := r.task(sqe.CollID)
		p.Sleep(ParseSQETime)
		if t == nil {
			// Stale SQE: after a voluntary quit, a restarted daemon
			// rebuilds its queue from global-memory contexts without
			// consuming pending SQEs, so an entry can surface after its
			// collective already completed and was unregistered.
			continue
		}
		if !t.inQueue {
			t.inQueue = true
			r.enqueueCounter++
			t.enqueueSeq = r.enqueueCounter
			*queue = append(*queue, t)
		}
		t.QueueLenAtLast = len(*queue)
		r.trace(p, t.ID(), trace.EvFetch)
		fetched++
	}
	return fetched
}

// executeTask runs the scheduled collective's primitives until it
// completes or a primitive exhausts its spin threshold, in which case
// the collective is preempted (Algorithm 1, lines 6-15). It reports
// (runCompleted, madeProgress). The daemon asks for the whole run, not a
// primitive at a time: the rank's Runner takes the primitive loop's turns
// on the engine's stack, with the task as its Pacer for what Algorithm 1
// does between two primitives (line 9), and this process is resumed only
// for the outcome.
func (r *RankContext) executeTask(p *sim.Process, t *collTask) (bool, bool) {
	t.progressed = false
	r.runner.Start(p, t.exec, t)
	p.Await(&r.runner)
	switch r.runner.Result() {
	case prim.Done:
		t.cur++
		t.prepared = false
		t.dirty = false
		t.execStarted = false
		t.LastCompletedAt = p.Now()
		t.Completions++
		r.writeCQE(p, t.ID())
		r.trace(p, t.ID(), trace.EvComplete)
		return true, true
	case prim.Stuck:
		// Preempt: lazily save the dynamic context (only if the
		// collective progressed since its last save) and switch.
		r.Stats.Preemptions++
		t.CtxSwitches++
		r.saveContext(p, t)
		r.trace(p, t.ID(), trace.EvPreempt)
		return false, t.progressed
	default: // prim.Aborted
		// A rank loss killed the group (the executor observed it at
		// a step/wait checkpoint, touching no connector state).
		// Resolve every pending run to a CQE; the poller translates
		// them into the group's typed error. The same drain runs on
		// the lost rank's own daemon, so its futures resolve too.
		n := len(t.runs) - t.cur
		t.cur = len(t.runs)
		t.prepared = false
		t.dirty = false
		t.execStarted = false
		for i := 0; i < n; i++ {
			r.writeCQE(p, t.ID())
		}
		r.trace(p, t.ID(), trace.EvComplete)
		return true, true
	}
}

// writeCQE pushes a completion entry, charging the CQ variant's write
// cost, and wakes the CPU poller.
func (r *RankContext) writeCQE(p *sim.Process, collID int) {
	for !r.cq.Push(collID) {
		// CQ full: wait for the poller to drain. Rare with default
		// sizing; bounded wait keeps the daemon preemptible.
		r.pollerWake.Broadcast(p.Engine())
		p.Sleep(PollerInterval)
	}
	p.Sleep(r.cq.WriteCost())
	r.Stats.CQEsWritten++
	r.pollerWake.Broadcast(p.Engine())
}

// loadContext stages a collective's context into an active slot,
// modeling the direct-mapped active-slot cache: loading is free when
// the context is already resident.
func (r *RankContext) loadContext(p *sim.Process, t *collTask) {
	if t.resident {
		return
	}
	// Evict: with ActiveContextSlots slots, keep residency for the
	// most recently used tasks only.
	r.evictOldest(t)
	p.Sleep(LoadContextTime)
	r.Stats.ContextLoads++
	t.resident = true
}

// saveContext persists the dynamic context of a preempted collective,
// lazily: contexts that have not progressed since the last save are
// skipped (Sec. 5).
func (r *RankContext) saveContext(p *sim.Process, t *collTask) {
	if !t.dirty && !r.sys.Config.AlwaysSaveContext {
		return
	}
	p.Sleep(SaveContextTime)
	r.Stats.ContextSaves++
	t.dirty = false
}

// blockingPollerBody is the CPU poller as blocking code, the reference for
// the poller machine: as it was, but for its name, the guard written as
// the loop of WaitTimeouts it was documented to equal, and each CQE
// delivered by the machine's own deliver, so the oracle checks the real
// pop of the launch FIFO.
func (r *RankContext) blockingPollerBody(p *sim.Process) {
	for {
		ids := r.cq.Drain()
		if len(ids) > 0 {
			// Modeled CQ polling discovery latency.
			p.Sleep(PollerInterval / 2)
		}
		for _, id := range ids {
			p.Sleep(CallbackTime)
			r.deliver(id)
		}
		if r.Outstanding() == 0 {
			r.idleCond.Broadcast(p.Engine())
			if r.destroyed {
				if r.lost {
					// A killed rank cannot Close its handles; release
					// its registrations so group refcounts drop and
					// survivors' last Close can recycle the
					// communicator.
					r.releaseAll()
				}
				return
			}
			r.pollerWake.Wait(p)
			continue
		}
		// Work is outstanding: make sure a daemon instance is alive
		// (it may have voluntarily quit), then wait for the daemon's
		// CQE signal, re-checking after a guard timeout in case a
		// signal raced with the drain above.
		r.ensureDaemon(p)
		r.pollerWake.WaitTimeout(p, pollerGuardTime)
	}
}
