package core

import (
	"cmp"
	"fmt"
	"slices"

	"dfccl/internal/cudasim"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/trace"
)

// The daemon kernel's body and the CPU poller's, as a launch and Init
// start them. The oracle test swaps in the blocking code the two machines
// replaced (blocking_test.go).
var (
	daemonBody = (*RankContext).runDaemon
	pollerBody = (*RankContext).runPoller
)

// daemon is the daemon kernel (Sec. 4): DFCCL's core component. It
// fetches SQEs into the task queue, schedules collectives under the
// stickiness-adjustment policy, executes their primitives in a
// two-phase blocking manner with bounded spins, preempts stuck
// collectives via context switch, writes CQEs for completed ones, and
// voluntarily quits when idle or globally stuck so GPU synchronization
// can complete. It polls the SQ every IdlePollTime for as long as it
// lives, as on the GPU.
//
// Between two waits its whole state is the task queue and the
// collectives' contexts, which the paper keeps in global memory, so it is
// a machine (sim.Stepper) that the kernel's process Awaits: the engine
// takes every turn on its own stack and resumes the process once, when the
// instance ends. Each state is where Algorithm 1's loop, written as
// blocking code, picks up after one of its waits, and does what that loop
// does up to its next wait, in that order, so the events are the loop's.
// The primitives of the task it runs are the rank's prim.Runner's, whose
// waits the daemon hands on as its own (dRunning), the task being the
// Runner's Pacer for what Algorithm 1 does between two primitives
// (line 9). One daemon serves every instance its rank launches, one at a
// time.
type daemon struct {
	r  *RankContext
	p  *sim.Process // the running instance's
	at dState
	// ret is where a context load or save goes on once it is over.
	ret dState

	queue      []*collTask // the task queue; its array outlives instances
	i          int         // the queue position the pass is at
	t          *collTask   // the task the state works on, nil between tasks
	sqe        SQE         // the SQE being read
	fetched    int         // SQEs fetched this pass
	progressed bool        // a task progressed this pass
	cqes       int         // CQEs the run's outcome has still to write
	seen       uint32      // the states entered so far, for the oracle test's coverage table
}

// dState is where the daemon's next turn picks up.
type dState uint8

const (
	dOff       dState = iota // no instance is running
	dStart                   // an instance entered: its startup
	dRebuild                 // rebuild the queue from the contexts in global memory
	dLoadAll                 // load the rebuilt queue's contexts, one at a time
	dPass                    // a scheduler pass: fetch SQEs per the ordering policy
	dFetch                   // pop the next SQE, if there is room and one
	dRead                    // the SQE's read is over
	dParsed                  // its parse is over: queue its task
	dSchedule                // sort the queue, set the spin thresholds
	dTraverse                // execute the task at position i (Algorithm 1, lines 4-15)
	dExecute                 // its context is loaded: start its primitives
	dRunning                 // a wait of the Runner's is over (taken before the switch)
	dRan                     // the run ended Done, Stuck or Aborted
	dDrain                   // write the outcome's next CQE, if any
	dPush                    // push it
	dFull                    // the CQ was full: the pause for the poller is over
	dPushed                  // its write is over
	dCompleted               // the outcome's CQEs are written
	dPreempted               // a stuck task's context is saved
	dLoaded                  // a context load is over
	dSaved                   // a context save is over
	dIdle                    // the pass is over
	dQuit                    // voluntary quit: save the queue's contexts, one at a time
	dStates
)

// runDaemon is the daemon kernel's body.
func (r *RankContext) runDaemon(kc *cudasim.KernelCtx) {
	m := &r.daemon
	// One daemon per rank serves every instance because stream order runs
	// them one at a time: each is launched on the rank's one stream, where a
	// kernel starts only once the one before it completed.
	if m.at != dOff {
		panic(fmt.Sprintf("core: rank %d: daemon kernel %s entered while another instance's run is live", r.Rank, kc.Name()))
	}
	m.p, m.at = kc.Process, dStart
	kc.Process.Await(m)
}

func sleep(d sim.Duration) (sim.Wait, bool) { return sim.Wait{D: d}, true }

// Next is the daemon's next turn (sim.Stepper).
func (m *daemon) Next() (sim.Wait, bool) {
	r := m.r
	if m.at == dRunning {
		// Most turns are the Runner's: hand its waits on without the switch.
		if w, again := r.runner.Next(); again {
			return w, true
		}
		m.at = dRan
	}
	cfg := &r.sys.Config
	for {
		m.seen |= 1 << m.at
		switch m.at {
		case dStart:
			m.at = dRebuild
			return sleep(DaemonStartup)

		case dRebuild:
			r.trace(m.p, -1, trace.EvStart)
			// Rebuild the task queue from contexts in global memory: work
			// that survived a voluntary quit (shared memory is lost across
			// quits; global-memory contexts are not — Sec. 4.5).
			m.queue, m.i, m.at = r.rebuildQueue(m.queue[:0]), 0, dLoadAll

		case dLoadAll:
			if m.i == len(m.queue) {
				r.lastActivity = m.p.Now()
				m.t, m.at = nil, dPass
				continue
			}
			m.t = m.queue[m.i]
			m.i++
			if w, ok := m.load(dLoadAll); ok {
				return w, true
			}

		case dPass:
			r.Stats.SchedulerPass++
			m.fetched, m.at = 0, dFetch
			// FIFO: fetch only when the queue is empty or everything has
			// been stuck past the backoff — empty the queue quickly.
			if cfg.Order == OrderFIFO && len(m.queue) != 0 && m.p.Now().Sub(r.lastActivity) < cfg.FetchBackoff {
				m.at = dSchedule
			}

		case dFetch:
			ok := false
			if len(m.queue) < cfg.TaskQueueCap {
				m.sqe, ok = r.sq.TryPop(m.p.Engine())
			}
			if !ok {
				m.at = dSchedule
				continue
			}
			m.at = dRead
			if cfg.BatchedSQERead && m.fetched > 0 {
				return sleep(BatchedSQEExtraTime)
			}
			return sleep(ReadSQETime)

		case dRead:
			r.Stats.SQEsRead++
			if m.sqe.Exit {
				return m.exit() // the exiting SQE: final exit (dfcclDestroy)
			}
			m.t, m.at = r.task(m.sqe.CollID), dParsed
			return sleep(ParseSQETime)

		case dParsed:
			m.at = dFetch
			t := m.t
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
				m.queue = append(m.queue, t)
			}
			t.QueueLenAtLast = len(m.queue)
			r.trace(m.p, t.ID(), trace.EvFetch)
			m.fetched++
			m.t = nil

		case dSchedule:
			if m.fetched > 0 {
				r.lastActivity = m.p.Now()
			}
			if cfg.Order == OrderPriority {
				slices.SortStableFunc(m.queue, func(a, b *collTask) int {
					return cmp.Compare(b.group.Priority, a.group.Priority)
				})
			}
			// Set initial spin thresholds by queue position (largest at
			// the front — Algorithm 1, line 3).
			for pos, t := range m.queue {
				t.spin = cfg.Spin.initialThreshold(pos)
			}
			m.i, m.progressed, m.at = 0, false, dTraverse

		case dTraverse:
			if m.i == len(m.queue) {
				m.at = dIdle
				continue
			}
			t := m.queue[m.i]
			if !t.prepared {
				if !t.pending() {
					// Nothing to do (a redundant SQE for an already-
					// drained task): drop it so a later Unregister never
					// leaves a dangling entry in the live queue.
					t.inQueue = false
					m.queue = slices.Delete(m.queue, m.i, m.i+1)
					continue
				}
				t.exec.Reset(t.runs[t.cur].send, t.runs[t.cur].recv)
				t.prepared, t.dirty = true, true
			}
			if !t.execStarted {
				t.execStarted = true
				t.ExecStartedAt = m.p.Now()
			}
			m.t = t
			if w, ok := m.load(dExecute); ok {
				return w, true
			}

		case dExecute:
			// Run the task's primitives until it completes or one exhausts
			// its spin threshold (Algorithm 1, lines 6-15).
			r.trace(m.p, m.t.ID(), trace.EvExecute)
			m.t.progressed = false
			r.runner.Start(m.p, m.t.exec, m.t)
			if w, again := r.runner.Next(); again {
				m.at = dRunning
				m.seen |= 1 << dRunning
				return w, true
			}
			m.at = dRan

		case dRan:
			t := m.t
			switch r.runner.Result() {
			case prim.Done:
				t.cur++
				t.prepared, t.dirty, t.execStarted = false, false, false
				t.LastCompletedAt = m.p.Now()
				t.Completions++
				m.cqes, m.at = 1, dDrain
			case prim.Stuck:
				// Preempt: lazily save the dynamic context (only if the
				// collective progressed since its last save) and switch.
				r.Stats.Preemptions++
				t.CtxSwitches++
				if w, ok := m.save(dPreempted); ok {
					return w, true
				}
			default: // prim.Aborted
				// A rank loss killed the group (the executor observed it at
				// a step/wait checkpoint, touching no connector state).
				// Resolve every pending run to a CQE; the poller translates
				// them into the group's typed error. The same drain runs on
				// the lost rank's own daemon, so its futures resolve too.
				m.cqes, m.at = len(t.runs)-t.cur, dDrain
				t.cur = len(t.runs)
				t.prepared, t.dirty, t.execStarted = false, false, false
			}

		case dDrain:
			m.at = dCompleted
			if m.cqes > 0 {
				m.cqes--
				m.at = dPush
			}

		case dPush:
			if !r.cq.Push(m.t.ID()) {
				// CQ full: wait for the poller to drain. Rare with default
				// sizing; bounded wait keeps the daemon preemptible.
				r.pollerWake.Broadcast(m.p.Engine())
				m.at = dFull
				return sleep(PollerInterval)
			}
			m.at = dPushed
			return sleep(r.cq.WriteCost())

		case dFull:
			m.at = dPush

		case dPushed:
			r.Stats.CQEsWritten++
			r.pollerWake.Broadcast(m.p.Engine())
			m.at = dDrain

		case dCompleted:
			t := m.t
			r.trace(m.p, t.ID(), trace.EvComplete)
			m.progressed, m.at = true, dTraverse
			// Completed runs leave the queue; more pending runs re-enter
			// via their own SQEs already in flight.
			if !t.pending() {
				t.inQueue = false
				m.queue = slices.Delete(m.queue, m.i, m.i+1)
			} else {
				m.i++
			}
			m.t = nil

		case dPreempted:
			r.trace(m.p, m.t.ID(), trace.EvPreempt)
			m.progressed = m.progressed || m.t.progressed
			m.t = nil
			m.i++
			m.at = dTraverse

		case dIdle:
			if m.progressed {
				r.lastActivity = m.p.Now()
				m.at = dPass
				continue
			}
			// Nothing progressed anywhere. Quit voluntarily after the
			// grace period so implicit/explicit GPU synchronization can
			// complete and resources free up (Sec. 4.4); otherwise pause
			// briefly and rescan: an empty queue polls the SQ, a stuck one
			// retries its tasks.
			if m.p.Now().Sub(r.lastActivity) >= cfg.QuitPeriod {
				m.i, m.at = 0, dQuit
				continue
			}
			m.at = dPass
			return sleep(IdlePollTime)

		case dQuit:
			if m.i == len(m.queue) {
				r.Stats.VoluntaryQuits++
				r.trace(m.p, -1, trace.EvQuit)
				// Wake the poller: it notices CQEs lag SQEs and will
				// restart the daemon when appropriate.
				r.pollerWake.Broadcast(m.p.Engine())
				return m.exit()
			}
			m.t = m.queue[m.i]
			m.i++
			if w, ok := m.save(dQuit); ok {
				return w, true
			}

		case dLoaded:
			r.Stats.ContextLoads++
			m.t.resident = true
			m.at = m.ret

		case dSaved:
			r.Stats.ContextSaves++
			m.t.dirty = false
			m.at = m.ret
		}
	}
}

// exit ends the instance.
func (m *daemon) exit() (sim.Wait, bool) {
	m.at, m.p, m.t = dOff, nil, nil
	return sim.Wait{}, false
}

// load stages m.t's context into an active slot, then goes on to then,
// modeling the direct-mapped active-slot cache: loading is free when the
// context is already resident.
func (m *daemon) load(then dState) (sim.Wait, bool) {
	if m.t.resident {
		m.at = then
		return sim.Wait{}, false
	}
	// Evict: with ActiveContextSlots slots, keep residency for the most
	// recently used tasks only.
	m.r.evictOldest(m.t)
	m.at, m.ret = dLoaded, then
	return sleep(LoadContextTime)
}

// save persists m.t's dynamic context, then goes on to then, lazily:
// contexts that have not progressed since the last save are skipped
// (Sec. 5).
func (m *daemon) save(then dState) (sim.Wait, bool) {
	if !m.t.dirty && !m.r.sys.Config.AlwaysSaveContext {
		m.at = then
		return sim.Wait{}, false
	}
	m.at, m.ret = dSaved, then
	return sleep(SaveContextTime)
}

// rebuildQueue reconstructs the task queue, in queue's array, after a
// (re)start from the persistent per-collective state, ordered by original
// enqueue order, then by collective ID: the stable sort keeps r.tasks'
// order among never-fetched tasks, which tie at 0.
func (r *RankContext) rebuildQueue(queue []*collTask) []*collTask {
	for _, t := range r.tasks {
		if t.pending() {
			t.inQueue = true
			queue = append(queue, t)
		} else {
			t.inQueue = false
		}
		t.resident = false
	}
	slices.SortStableFunc(queue, func(a, b *collTask) int { return cmp.Compare(a.enqueueSeq, b.enqueueSeq) })
	return queue
}

// evictOldest clears residency of other tasks beyond the slot budget.
func (r *RankContext) evictOldest(incoming *collTask) {
	resident := 0
	for _, t := range r.tasks {
		if t.resident && t != incoming {
			resident++
		}
	}
	if resident < ActiveContextSlots {
		return
	}
	// Direct-mapped eviction: slot index = collID % slots; evict the
	// lowest-ID resident task sharing the incoming task's slot, else the
	// lowest-ID resident task. r.tasks is in ID order, so each is the
	// first the scan meets.
	slot := incoming.ID() % ActiveContextSlots
	var victim *collTask
	for _, t := range r.tasks {
		if !t.resident || t == incoming {
			continue
		}
		if victim == nil {
			victim = t
		}
		if t.ID()%ActiveContextSlots == slot {
			victim = t
			break
		}
	}
	victim.resident = false
}

// trace records a daemon scheduling event on the flight recorder.
func (r *RankContext) trace(p *sim.Process, coll int, kind trace.Kind) {
	if rec := r.sys.Config.Recorder; rec != nil {
		rec.Record(p.Now(), r.Rank, coll, kind)
	}
}
