package core

import (
	"cmp"
	"fmt"
	"slices"

	"dfccl/internal/cudasim"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
)

// Callback is a user completion callback, invoked by the poller thread
// when the collective's CQE is observed (Fig. 4, steps 6–7). err is
// nil on normal completion; when the run's group was killed by a rank
// loss it is the group's typed *RankLostError (matching
// errors.Is(err, ErrRankLost)). A run that finished successfully just
// before the kill may still observe the error — the CQE does not
// record provenance — so retry layers must treat the error as "result
// unusable", not "no data moved".
type Callback func(err error)

// launch is one run of a registered collective, from the launch that
// submits it to the poller's delivery of its CQE: the buffers the daemon
// runs it on, and what its completion resolves — the future of Launch or
// Batch, or the callback of LaunchCB and Run (which may be nil).
type launch struct {
	send, recv *mem.Buffer
	cb         Callback
	fut        *Future
}

// collTask is the state of one registered collective on one GPU: its
// launch FIFO, its executor (whose Round/Step/Phase fields are the
// dynamic context), spin state, and statistics. A task Close released
// serves a later registration from the System's free list, keeping
// the executor (with its plan and scratch) and the FIFO's array.
type collTask struct {
	group *Group
	exec  *prim.Executor
	// next links the System's free list of retired tasks.
	next *collTask
	// runs is the launch FIFO, in launch order, over one reused array.
	// runs[cur:] are the daemon's to run, runs[cur] next; runs[:cur] are
	// done, and the poller pops each from the front as it delivers its
	// CQE.
	runs []launch
	cur  int
	// sendCount and recvCount are the buffer lengths a launch must bring
	// (set at Open unless the spec is timing-only).
	sendCount, recvCount int
	// prepared marks that exec has been Reset for runs[cur].
	prepared bool
	// inQueue marks presence in the daemon's task queue.
	inQueue bool
	// dirty marks progress since the last context save (lazy saving).
	dirty bool
	// resident marks the context as loaded in an active slot.
	resident bool
	// progressed marks a primitive completed in the current executeTask.
	progressed  bool
	execStarted bool
	// spin is the current spin threshold in polls, adjusted under policy.
	spin   int64
	policy *SpinPolicy
	// enqueueSeq orders queue rebuilds after daemon restarts.
	enqueueSeq uint64

	// Stats.
	CtxSwitches    int // preemptions of this collective on this GPU
	Completions    int // completed runs
	QueueLenAtLast int // task queue length right after this task's last SQE fetch

	// Core-execution timing of the most recent run (Fig. 9's "core
	// execution time": preparing overheads + primitive execution), from
	// the first scheduling (execStarted) to completion.
	ExecStartedAt   sim.Time
	LastCompletedAt sim.Time
}

// ID returns the collective ID.
func (t *collTask) ID() int { return t.group.ID }

// pending reports whether the task has a run for the daemon to do.
func (t *collTask) pending() bool { return t.cur < len(t.runs) }

// checkBuffers validates a launch's buffers against the element type of
// the spec and the lengths the task's position in it requires (AllToAllv
// sizes differ per rank: row/column sums of the count matrix), and
// refuses overlapping buffers to a kind that cannot run in place.
func (t *collTask) checkBuffers(sendBuf, recvBuf *mem.Buffer) error {
	spec := &t.group.Spec
	if spec.TimingOnly {
		return nil
	}
	if sendBuf == nil || recvBuf == nil {
		return fmt.Errorf("core: %v launched with nil buffer(s); non-timing collectives need real send/recv buffers", spec.Kind)
	}
	if sendBuf.Type != spec.Type {
		return fmt.Errorf("core: %v send buffer holds %v, want %v", spec.Kind, sendBuf.Type, spec.Type)
	}
	if recvBuf.Type != spec.Type {
		return fmt.Errorf("core: %v recv buffer holds %v, want %v", spec.Kind, recvBuf.Type, spec.Type)
	}
	if sendBuf.Len() != t.sendCount {
		return fmt.Errorf("core: %v send buffer has %d elems, want %d", spec.Kind, sendBuf.Len(), t.sendCount)
	}
	if recvBuf.Len() != t.recvCount {
		return fmt.Errorf("core: %v recv buffer has %d elems, want %d", spec.Kind, recvBuf.Len(), t.recvCount)
	}
	if !spec.Kind.InPlace() && sendBuf.Overlaps(recvBuf) {
		return &BufferOverlapError{CollID: t.group.ID, Kind: spec.Kind}
	}
	return nil
}

// Budget is the spin budget of the task's next primitive (prim.Pacer).
func (t *collTask) Budget() sim.Duration { return budget(t.spin) }

// Progressed books a primitive's success (prim.Pacer): the context is
// dirty, and succeeding primitives' thresholds rise (Algorithm 1, line 9),
// the gang-scheduling negotiation signal.
func (t *collTask) Progressed() {
	t.progressed = true
	t.dirty = true
	t.spin = t.policy.boost(t.spin)
}

// RankContext is the per-GPU DFCCL context created by Init: the SQ/CQ
// pair, the registered tasks with their launch FIFOs (the paper's
// callback map) in a table ordered by collective ID, the poller thread,
// and the daemon kernel management (Fig. 4).
type RankContext struct {
	sys  *System
	Rank int
	dev  *cudasim.Device

	sq     *SQ
	cq     *CQ
	stream *cudasim.Stream
	// runner runs the primitives of whichever collective the daemon has
	// scheduled.
	runner prim.Runner
	daemon daemon
	poller poller

	// tasks holds the registered tasks in ascending collective-ID order,
	// so every scan of them runs in that order; task looks one up.
	tasks []*collTask

	// kernel is the daemon kernel, built once; each launch sets its grid
	// and the instance keeps a copy.
	kernel     cudasim.Kernel
	daemonInst *cudasim.KernelInstance
	// lastActivity is when the live daemon instance last fetched an SQE or
	// made progress; the quit period and the FIFO fetch backoff count
	// from it.
	lastActivity sim.Time
	finalExit    bool
	destroyed    bool
	// lost marks the rank as killed (KillRank): destroyed for new work,
	// with its daemon still draining aborted runs to CQEs. The poller
	// auto-releases the rank's registrations when it exits.
	lost bool

	submitted int
	completed int

	pollerWake sim.Cond
	// idleCond is broadcast when completed catches up to submitted;
	// WaitAll blocks on it.
	idleCond sim.Cond

	enqueueCounter uint64

	// Stats (Sec. 6.1 / Fig. 7 / Fig. 11 instrumentation).
	Stats RankStats
}

// RankStats aggregates per-GPU daemon statistics.
type RankStats struct {
	DaemonStarts   int
	VoluntaryQuits int
	SQEsRead       int
	CQEsWritten    int
	Preemptions    int
	ContextLoads   int
	ContextSaves   int
	SchedulerPass  int
}

// Init creates (or returns) the rank context for a GPU — dfcclInit.
// The calling process becomes the owner; the poller is spawned here.
func (s *System) Init(p *sim.Process, rank int) *RankContext {
	if rank < 0 || rank >= len(s.ranks) {
		panic(fmt.Sprintf("core: rank %d out of range", rank))
	}
	if s.ranks[rank] != nil {
		return s.ranks[rank]
	}
	r := &RankContext{
		sys:  s,
		Rank: rank,
		dev:  s.Devs[rank],
		sq:   NewSQ(fmt.Sprintf("gpu%d.sq", rank), sqSlots),
		cq:   NewCQ(s.Config.CQVariant, s.Config.CQSlots),
		// Capacity 8 holds the collectives a rank of every benchmark
		// workload keeps open at once (disorder_preempt's eight the most),
		// so registrations never regrow the table.
		tasks: make([]*collTask, 0, 8),
	}
	r.daemon.r, r.poller.r = r, r
	r.kernel = cudasim.Kernel{
		Name: fmt.Sprintf("dfccl.daemon.gpu%d", rank),
		Body: func(kc *cudasim.KernelCtx) { daemonBody(r, kc) },
	}
	r.stream = r.dev.NewStream()
	s.ranks[rank] = r
	p.Spawn(fmt.Sprintf("dfccl.poller.gpu%d", rank), func(p *sim.Process) { pollerBody(r, p) })
	return r
}

// register is the registration workhorse behind Open: it creates (or
// joins) the cross-rank group and installs the per-rank task.
func (r *RankContext) register(spec prim.Spec, collID, priority, grid, job int) error {
	if r.destroyed && !r.lost {
		return fmt.Errorf("core: rank %d context destroyed", r.Rank)
	}
	// Per-rank validations run before the system-level register so a
	// failed call never leaves behind a refs==0 group holding a
	// communicator that no Unregister can ever release.
	i, dup := r.taskAt(collID)
	if dup {
		return fmt.Errorf("core: collective %d already registered on rank %d", collID, r.Rank)
	}
	pos := slices.Index(spec.Ranks, r.Rank)
	if pos < 0 {
		return fmt.Errorf("core: rank %d not in devSet of collective %d", r.Rank, collID)
	}
	g, err := r.sys.register(spec, collID, priority, grid, job)
	if err != nil {
		return err
	}
	t := r.sys.takeTask()
	*t = collTask{group: g, exec: t.exec, runs: t.runs[:0], policy: &r.sys.Config.Spin}
	g.comm.wirings.Rebuild(t.exec, r.sys.Cluster, g.Spec, pos)
	if !g.Spec.TimingOnly {
		t.sendCount, t.recvCount = prim.BufferCountsFor(g.Spec, pos)
	}
	// The abort hook is how a rank loss reaches the daemon: the
	// executor polls it at every step entry and connector-wait wakeup.
	t.exec.AbortCheck = g.abortCheck
	t.exec.Job = g.Job
	if rec := r.sys.Config.Recorder; rec != nil {
		t.exec.Rec, t.exec.RecColl = rec, collID
	}
	r.tasks = slices.Insert(r.tasks, i, t)
	g.refs++
	return nil
}

// Unregister removes a collective's registration from this rank — the
// inverse of dfcclRegister* that the paper's API lacks, and the layer
// under (*Collective).Close. When the last participating rank
// unregisters, the group's communicator returns to the pool.
// Unregistering with outstanding runs is an error.
func (r *RankContext) Unregister(collID int) error {
	t := r.task(collID)
	if t == nil {
		return fmt.Errorf("core: collective %d not registered on rank %d", collID, r.Rank)
	}
	if len(t.runs) > 0 {
		return fmt.Errorf("core: collective %d has %d outstanding run(s) on rank %d; wait for completion before Close/Unregister",
			collID, len(t.runs), r.Rank)
	}
	r.release(t)
	return nil
}

// release drops one of the rank's registrations, which has no launch
// left: it retires the executor's counters, unregisters the rank from
// the group and recycles the task, unless the daemon may still reach
// it — a task in its queue, or the one it is working on.
func (r *RankContext) release(t *collTask) {
	r.sys.retired.addExec(t.exec)
	i, _ := r.taskAt(t.group.ID)
	r.tasks = slices.Delete(r.tasks, i, i+1)
	r.sys.unregister(t.group)
	if !t.inQueue && r.daemon.t != t {
		r.sys.freeTask(t)
	}
}

// submit validates a launch, records it at the back of the collective's
// launch FIFO, inserts its SQE, and starts the daemon kernel if
// necessary (event-driven starting, Sec. 4.4).
func (r *RankContext) submit(p *sim.Process, collID int, l launch) error {
	if r.lost {
		// The rank's own departure is a rank-lost condition too: callers
		// running on a killed rank see the same typed error survivors do.
		return &RankLostError{CollID: collID, Lost: []int{r.Rank}}
	}
	if r.destroyed {
		return fmt.Errorf("core: rank %d context destroyed", r.Rank)
	}
	task := r.task(collID)
	if task == nil {
		return fmt.Errorf("core: collective %d not registered on rank %d", collID, r.Rank)
	}
	if task.group.aborted() {
		// Dead group: reject synchronously with the typed error rather
		// than queueing a run that could only abort.
		return task.group.abortErr
	}
	if err := task.checkBuffers(l.send, l.recv); err != nil {
		return err
	}
	task.runs = append(task.runs, l)
	r.submitted++
	r.sq.Push(p, SQE{CollID: collID})
	r.ensureDaemon(p)
	r.pollerWake.Broadcast(p.Engine())
	return nil
}

// Outstanding returns submitted-but-uncompleted run count.
func (r *RankContext) Outstanding() int { return r.submitted - r.completed }

// Completed returns the number of completed collective runs.
func (r *RankContext) Completed() int { return r.completed }

// WaitAll blocks the calling process until every submitted run has
// completed (a convenience for tests and examples; applications
// normally rely on callbacks).
func (r *RankContext) WaitAll(p *sim.Process) {
	for r.Outstanding() > 0 {
		r.idleCond.Wait(p)
	}
}

// Destroy tears down the rank context — dfcclDestroy. It inserts the
// exiting SQE so a running daemon finally exits, and stops the poller.
func (r *RankContext) Destroy(p *sim.Process) {
	if r.destroyed {
		return
	}
	r.destroyed = true
	r.finalExit = true
	r.sq.Push(p, SQE{Exit: true})
	r.pollerWake.Broadcast(p.Engine())
}

// ensureDaemon launches the daemon kernel if no live instance exists —
// the event-driven start on SQE insertion and on CQE deficit.
func (r *RankContext) ensureDaemon(p *sim.Process) {
	if grid := r.daemonKernel(); grid > 0 {
		p.Sleep(cudasim.LaunchOverhead)
		r.enqueueDaemon(grid)
	}
}

// daemonKernel counts a daemon start and returns the grid to launch the
// daemon kernel at, or 0 when a live instance exists or none is needed.
// The launcher pays cudasim.LaunchOverhead, enqueues the kernel at that
// grid and only then records the instance, so a second launcher within
// that wait launches a second one, which the stream runs after the first.
func (r *RankContext) daemonKernel() int {
	if r.finalExit && r.Outstanding() == 0 {
		return 0
	}
	if r.daemonInst != nil && !r.daemonInst.Done() {
		return 0
	}
	grid := 1
	for _, t := range r.tasks {
		grid = max(grid, t.group.Grid)
	}
	r.Stats.DaemonStarts++
	return grid
}

// enqueueDaemon enqueues the daemon kernel at grid on the rank's stream
// and records the instance, which keeps its own copy of the kernel.
func (r *RankContext) enqueueDaemon(grid int) {
	r.kernel.Grid = grid
	r.daemonInst = r.dev.Enqueue(r.stream, &r.kernel)
}

// poller is the CPU poller thread: it drains the CQ, runs callbacks, and
// restarts the daemon when completions lag submissions (Sec. 4.4). It is
// event-driven with a modeled discovery latency rather than a hot loop,
// so idle systems quiesce: with nothing outstanding it waits for
// pollerWake alone; with work outstanding it also looks again every
// pollerGuardTime, in case a signal raced with a drain.
//
// Like the daemon it is a machine its process Awaits, each state picking up
// after one of the blocking loop's waits, and its process is resumed only
// to exit. Callbacks therefore run in its turns, on the engine's stack.
// They could not block before either (only a process's own body may wait),
// and a panic in one is still the poller's.
type poller struct {
	r    *RankContext
	at   pState
	ids  []int // what the last drain returned
	i    int   // the next of them to call back
	grid int   // the grid of the daemon kernel being launched
	seen uint8 // the states entered so far, for the oracle test's coverage table
}

// pState is where the poller's next turn picks up.
type pState uint8

const (
	pDrain     pState = iota // drain the CQ
	pCallbacks               // call the next drained CQE back, if any
	pCallback                // its callback's time is over: run it
	pCheck                   // the idle hand-off and exit, or a relaunch and the guard
	pLaunched                // the daemon's launch overhead is over: enqueue it
	pStates
)

// runPoller is the poller thread's body.
func (r *RankContext) runPoller(p *sim.Process) { p.Await(&r.poller) }

// Next is the poller's next turn (sim.Stepper).
func (m *poller) Next() (sim.Wait, bool) {
	r := m.r
	for {
		m.seen |= 1 << m.at
		switch m.at {
		case pDrain:
			m.ids, m.i, m.at = r.cq.Drain(), 0, pCallbacks
			if len(m.ids) > 0 {
				return sleep(PollerInterval / 2) // modeled CQ polling discovery latency
			}

		case pCallbacks:
			m.at = pCheck
			if m.i < len(m.ids) {
				m.at = pCallback
				return sleep(CallbackTime)
			}

		case pCallback:
			id := m.ids[m.i]
			m.i++
			m.at = pCallbacks
			r.deliver(id)

		case pCheck:
			if r.Outstanding() == 0 {
				r.idleCond.Broadcast(r.sys.Engine)
				if r.destroyed {
					if r.lost {
						// A killed rank cannot Close its handles; release
						// its registrations so group refcounts drop and
						// survivors' last Close can recycle the
						// communicator.
						r.releaseAll()
					}
					return sim.Wait{}, false
				}
				m.at = pDrain
				return sim.Wait{Cond: &r.pollerWake, Untimed: true}, true
			}
			// Work is outstanding: make sure a daemon instance is alive
			// (it may have voluntarily quit), then wait for the daemon's
			// CQE signal.
			if m.grid = r.daemonKernel(); m.grid > 0 {
				m.at = pLaunched
				return sleep(cudasim.LaunchOverhead)
			}
			return m.guard()

		case pLaunched:
			r.enqueueDaemon(m.grid)
			return m.guard()
		}
	}
}

// guard waits for the daemon's CQE signal, for at most pollerGuardTime.
func (m *poller) guard() (sim.Wait, bool) {
	m.at = pDrain
	return sim.Wait{Cond: &m.r.pollerWake, D: pollerGuardTime}, true
}

// pollerGuardTime bounds how long the poller trusts pollerWake alone.
const pollerGuardTime = 50 * PollerInterval

// deliver is the poller's delivery of one drained CQE (Fig. 4, step 7):
// it pops the front of the collective's launch FIFO, the oldest launch
// the daemon has done, and resolves its future or calls its callback
// with the run's error: the group's typed abort error when a rank loss
// killed it, else nil. The task is still registered, as Unregister
// refuses while its FIFO holds a launch; the pop comes first, so a
// callback may Close the handle.
func (r *RankContext) deliver(id int) {
	r.completed++
	t := r.task(id)
	if t == nil || t.cur == 0 {
		panic(fmt.Sprintf("core: CQE for collective %d with no launch done", id))
	}
	l := t.runs[0]
	t.runs = slices.Delete(t.runs, 0, 1)
	t.cur--
	var err error
	if t.group.abortErr != nil {
		err = t.group.abortErr
	}
	switch {
	case l.fut != nil:
		l.fut.completeOne(r.sys.Engine, r.CoreExecTime(id), err)
	case l.cb != nil:
		l.cb(err)
	}
}

// releaseAll drops every registration this rank still holds —
// idempotent cleanup for killed ranks, run by the exiting poller and
// by ReviveRank (whichever comes first).
func (r *RankContext) releaseAll() {
	// In ID order: the last rank out of a group scrubs and pools its
	// communicator, which wakes processes and orders the free lists.
	for len(r.tasks) > 0 {
		r.release(r.tasks[0])
	}
}

// taskAt returns where collective id's task is in r.tasks, or would go,
// and whether it is there.
func (r *RankContext) taskAt(id int) (int, bool) {
	return slices.BinarySearchFunc(r.tasks, id, func(t *collTask, id int) int { return cmp.Compare(t.group.ID, id) })
}

// task returns the rank's task of collective id, or nil.
func (r *RankContext) task(id int) *collTask {
	if i, ok := r.taskAt(id); ok {
		return r.tasks[i]
	}
	return nil
}

// Lost reports whether this rank has been killed (KillRank).
func (r *RankContext) Lost() bool { return r.lost }

// DeviceSynchronize issues an explicit GPU synchronization
// (cudaDeviceSynchronize) from the application: the calling process
// blocks until all kernels on this GPU complete — including the daemon
// kernel, which must voluntarily quit for the synchronization to
// finish (Sec. 4.4).
func (r *RankContext) DeviceSynchronize(p *sim.Process) {
	r.dev.Synchronize(p)
}

// CoreExecTime returns the most recent run's core execution time for a
// collective: from its first scheduling in the daemon to completion.
func (r *RankContext) CoreExecTime(collID int) sim.Duration {
	t := r.task(collID)
	if t == nil || t.Completions == 0 {
		return 0
	}
	return t.LastCompletedAt.Sub(t.ExecStartedAt)
}

// TaskStats returns per-collective scheduling statistics (context
// switches, completions, task queue length at last fetch) for the
// Fig. 11 instrumentation.
func (r *RankContext) TaskStats(collID int) (ctxSwitches, completions, queueLen int) {
	t := r.task(collID)
	if t == nil {
		return 0, 0, 0
	}
	return t.CtxSwitches, t.Completions, t.QueueLenAtLast
}
