package core

import (
	"fmt"

	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/trace"
)

// OpenOption configures Open. Options compose left to right. An option
// is a small value, one setting of one field, so passing options to Open
// allocates nothing.
type OpenOption struct {
	field optField
	n     int
}

// optField names the setting an OpenOption makes.
type optField uint8

const (
	optCollID optField = iota + 1
	optPriority
	optGrid
	optJob
)

type openOpts struct {
	collID   int
	hasID    bool
	priority int
	grid     int
	job      int
}

// apply makes option's setting on o.
func (o *openOpts) apply(opt OpenOption) {
	switch opt.field {
	case optCollID:
		o.collID, o.hasID = opt.n, true
	case optPriority:
		o.priority = opt.n
	case optGrid:
		o.grid = opt.n
	case optJob:
		o.job = opt.n
	}
}

// WithCollID pins the collective to an explicit ID, as the paper's
// dfcclRegister* API does. All participating ranks must open the same
// ID with the same spec. Without this option the system derives a
// deterministic ID from the spec, matching the i-th open of a given
// spec across ranks (which requires ranks to open identical specs in
// the same per-spec order — use WithCollID when they do not).
func WithCollID(id int) OpenOption { return OpenOption{field: optCollID, n: id} }

// WithPriority sets the scheduling priority used by the daemon's
// priority ordering policy (higher runs first). The first rank to open
// a collective fixes its priority.
func WithPriority(priority int) OpenOption { return OpenOption{field: optPriority, n: priority} }

// WithGrid sets the number of thread blocks the collective's kernel
// needs; the daemon kernel's grid is the maximum over registered
// collectives. The first rank to open a collective fixes its grid. Open
// refuses a grid larger than a member rank's device holds.
func WithGrid(blocks int) OpenOption { return OpenOption{field: optGrid, n: blocks} }

// WithJob tags the collective with the tenant job it belongs to (job
// IDs are positive; 0 — the default — means untagged). The tag flows
// through the executor into recorded action spans, sends, and fabric
// flows for per-tenant attribution, and it is part of the group's
// identity: every participating rank must open the same job, and a
// collective ID can never be shared across jobs — the per-job isolation
// that keeps one tenant's data out of another's communicator.
func WithJob(job int) OpenOption { return OpenOption{field: optJob, n: job} }

// Collective is a typed handle to one registered collective on one
// rank: the unit of the v2 API. It is obtained from Open, launched
// with Launch (future style) or LaunchCB (callback style), observed
// with Stats, and released with Close, which deregisters the
// collective on this rank and — once every participating rank has
// closed — returns the group's communicator to the pool.
type Collective struct {
	r      *RankContext
	id     int
	closed bool
}

// Open registers a collective on this rank and returns its handle —
// the v2 replacement for dfcclRegister*. All participating ranks must
// open the same collective (same spec, same effective ID).
func (r *RankContext) Open(spec prim.Spec, opts ...OpenOption) (*Collective, error) {
	if r.destroyed && !r.lost {
		// A lost rank falls through to registration, which refuses it
		// with the typed *RankLostError.
		return nil, fmt.Errorf("core: rank %d context destroyed", r.Rank)
	}
	var o openOpts
	for _, opt := range opts {
		o.apply(opt)
	}
	// Ranks outside the cluster are refused here, before anything (the
	// tuning table, the pool) looks them up, and so is a grid some
	// member's device cannot hold: the daemon kernel launched at it
	// could never start.
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	for _, rank := range spec.Ranks {
		if size := r.sys.Cluster.Size(); rank < 0 || rank >= size {
			return nil, &RankRangeError{Rank: rank, Size: size}
		}
		if capacity := r.sys.Devs[rank].MaxResidentBlocks; o.grid > capacity {
			return nil, fmt.Errorf("core: grid %d exceeds rank %d's device capacity of %d blocks", o.grid, rank, capacity)
		}
	}
	// AlgoAuto resolves to a concrete algorithm before registration, so
	// the group's spec — and everything keyed on it: fingerprint-derived
	// auto IDs, re-registration identity, Reform's survivor spec — only
	// ever carries ring or hierarchical. Resolution is deterministic
	// (same table, same spec, same cluster), so all ranks converge on
	// the same concrete algorithm without coordination.
	if spec.Algo == prim.AlgoAuto {
		var note string
		spec.Algo, note = r.sys.resolveAlgo(spec)
		r.sys.tunePicks++
		if rec := r.sys.Config.Recorder; rec != nil {
			rec.RecordMark(trace.Mark{
				At: r.sys.Engine.Now(), Kind: trace.MarkTunePick,
				GPU: r.Rank, Coll: -1, Note: note,
			})
		}
	}
	id := o.collID
	if !o.hasID {
		id = r.sys.autoCollID(r, spec)
	}
	if err := r.register(spec, id, o.priority, o.grid, o.job); err != nil {
		return nil, err
	}
	return &Collective{r: r, id: id}, nil
}

// ID returns the collective ID (explicit or system-assigned).
func (c *Collective) ID() int { return c.id }

// Rank returns the rank this handle belongs to.
func (c *Collective) Rank() int { return c.r.Rank }

// Spec returns the registered spec; the zero Spec after Close. The
// closed check matters because collective IDs are reusable after a
// full close: a stale handle must not report a successor's spec.
func (c *Collective) Spec() prim.Spec {
	if t := c.r.task(c.id); t != nil && !c.closed {
		return t.group.Spec
	}
	return prim.Spec{}
}

// Closed reports whether Close has been called on this handle.
func (c *Collective) Closed() bool { return c.closed }

// preflight validates a launch without submitting it.
func (c *Collective) preflight(send, recv *mem.Buffer) error {
	if c.closed {
		return fmt.Errorf("core: collective %d launched after Close on rank %d", c.id, c.r.Rank)
	}
	if c.r.lost {
		return &RankLostError{CollID: c.id, Lost: []int{c.r.Rank}}
	}
	if c.r.destroyed {
		return fmt.Errorf("core: rank %d context destroyed", c.r.Rank)
	}
	t := c.r.task(c.id)
	if t == nil {
		return fmt.Errorf("core: collective %d not registered on rank %d", c.id, c.r.Rank)
	}
	return t.checkBuffers(send, recv)
}

// Launch submits one asynchronous run of the collective and returns a
// Future that resolves when the daemon kernel completes it. The future
// carries the run's core-execution time (Fig. 9's preparing overheads
// + primitive execution).
//
// Both buffers belong to the run until it resolves, as in NCCL: the run
// may read the send buffer and write the recv buffer at any point up to
// then, so neither may be written (nor the recv buffer read) before. The
// flat ring all-reduce and reduce-scatter read each block's own
// contribution from the send buffer until their last reduce-scatter
// step, and a run lends chunks of its recv buffer to its peers until it
// resolves. The all-to-all(v) sends its own blocks straight from the
// send buffer and writes each final block into the recv buffer as it
// arrives, so an aborted one may leave recv partly written, and one
// whose send and recv buffers overlap is refused with a
// *BufferOverlapError (every other kind may run in place). A buffer
// whose element type or length is not the spec's is refused.
func (c *Collective) Launch(p *sim.Process, send, recv *mem.Buffer) (*Future, error) {
	f := newFuture(c.r.sys.Engine, 1)
	if err := c.submit(p, launch{send: send, recv: recv, fut: f}); err != nil {
		return nil, err
	}
	return f, nil
}

// LaunchCB submits one asynchronous run with a completion callback —
// the paper's dfcclRun* style on a handle. cb may be nil. The buffers
// belong to the run until the callback is called, as for Launch.
func (c *Collective) LaunchCB(p *sim.Process, send, recv *mem.Buffer, cb Callback) error {
	return c.submit(p, launch{send: send, recv: recv, cb: cb})
}

// submit submits one run of the collective on its rank.
func (c *Collective) submit(p *sim.Process, l launch) error {
	if c.closed {
		return fmt.Errorf("core: collective %d launched after Close on rank %d", c.id, c.r.Rank)
	}
	return c.r.submit(p, c.id, l)
}

// CollectiveStats are per-handle scheduling statistics on this rank.
type CollectiveStats struct {
	// CtxSwitches counts preemptions of this collective on this GPU.
	CtxSwitches int
	// Completions counts completed runs.
	Completions int
	// QueueLenAtLast is the daemon task-queue length right after this
	// collective's last SQE fetch (Fig. 11 instrumentation).
	QueueLenAtLast int
	// LastCoreExec is the most recent run's core-execution time.
	LastCoreExec sim.Duration
	// BytesSentBy is the cumulative wire traffic this rank's executor
	// wrote across all runs, store-and-forward hops included, by
	// transport (SHM vs RDMA vs device-local) — what the
	// hierarchical-vs-ring comparisons pin.
	BytesSentBy prim.TransportBytes
	// NumPrimitives is the per-run primitive count of this rank's
	// schedule (actions × rounds, summed over stages): the flight
	// recorder's span-count gate expects Completions × NumPrimitives
	// action spans from a cleanly completed collective.
	NumPrimitives int
	// PrimsExecuted is the cumulative count of primitives this rank's
	// executor actually completed across all runs — equals
	// Completions × NumPrimitives absent aborts, less on a collective
	// killed mid-run.
	PrimsExecuted int
}

// Stats returns this collective's per-rank scheduling statistics; the
// zero value after Close (IDs are reusable after a full close, so a
// stale handle must not report a successor's statistics).
func (c *Collective) Stats() CollectiveStats {
	t := c.r.task(c.id)
	if t == nil || c.closed {
		return CollectiveStats{}
	}
	return CollectiveStats{
		CtxSwitches:    t.CtxSwitches,
		Completions:    t.Completions,
		QueueLenAtLast: t.QueueLenAtLast,
		LastCoreExec:   c.r.CoreExecTime(c.id),
		BytesSentBy:    t.exec.BytesSentBy,
		NumPrimitives:  t.exec.NumPrimitives(),
		PrimsExecuted:  t.exec.PrimsExecuted,
	}
}

// Close deregisters the collective on this rank — the Unregister
// lifecycle step the paper's API lacks. The task is removed from the
// rank, the group's cross-rank refcount drops, and when the last
// participating rank closes, the group's communicator returns to the
// pool for reuse by later collectives over the same rank set. Closing
// with outstanding runs is an error (WaitAll or wait the futures
// first); closing twice is a no-op. p is the calling host process,
// kept for symmetry with the rest of the API (teardown is currently
// free in virtual time).
func (c *Collective) Close(p *sim.Process) error {
	_ = p
	if c.closed {
		return nil
	}
	if err := c.r.Unregister(c.id); err != nil {
		return err
	}
	c.closed = true
	return nil
}

// LostRanks returns the departed ranks that killed this collective's
// group, ascending; nil while the group is healthy (or after Close).
func (c *Collective) LostRanks() []int {
	t := c.r.task(c.id)
	if t == nil || c.closed || t.group.abortErr == nil {
		return nil
	}
	return append([]int(nil), t.group.abortErr.Lost...)
}

// Reform is the retry path after a rank loss: it closes this dead
// handle and re-opens the same collective over the surviving ranks,
// returning the new handle. The survivor spec keeps the kind,
// algorithm, priority, and grid; an AllToAllv count matrix shrinks to
// the survivor submatrix, and a Reduce/Broadcast root is re-indexed to
// the same global rank (Reform fails if the root itself died — there
// is no one to re-form around). Every surviving rank must call Reform
// (the re-open converges on the same auto-assigned collective ID the
// way Open does), and must first drain its outstanding futures — they
// resolve with the typed error — because Close refuses handles with
// runs in flight. Reform on a healthy handle is an error.
func (c *Collective) Reform(p *sim.Process) (*Collective, error) {
	if c.closed {
		return nil, fmt.Errorf("core: collective %d reformed after Close on rank %d", c.id, c.r.Rank)
	}
	t := c.r.task(c.id)
	if t == nil {
		return nil, fmt.Errorf("core: collective %d not registered on rank %d", c.id, c.r.Rank)
	}
	g := t.group
	if g.abortErr == nil {
		return nil, fmt.Errorf("core: collective %d is healthy; Reform needs a rank loss", c.id)
	}
	spec, err := survivorSpec(g.Spec, g.abortErr.Lost)
	if err != nil {
		return nil, err
	}
	priority, grid, job := g.Priority, g.Grid, g.Job
	oldID := c.id
	if err := c.Close(p); err != nil {
		return nil, err
	}
	nc, err := c.r.Open(spec, WithPriority(priority), WithGrid(grid), WithJob(job))
	if err != nil {
		return nil, err
	}
	c.r.sys.reforms++
	if rec := c.r.sys.Config.Recorder; rec != nil {
		rec.RecordMark(trace.Mark{
			At: c.r.sys.Engine.Now(), Kind: trace.MarkReform,
			GPU: c.r.Rank, Coll: nc.id,
			Note: fmt.Sprintf("from coll %d", oldID),
		})
	}
	return nc, nil
}

// survivorSpec derives the re-formation spec: the original with the
// lost ranks (ascending) removed, the count matrix shrunk to the
// survivor submatrix, and the root re-indexed.
func survivorSpec(spec prim.Spec, lost []int) (prim.Spec, error) {
	isLost := make(map[int]bool, len(lost))
	for _, r := range lost {
		isLost[r] = true
	}
	ns := spec
	var ranks, keep []int
	for i, r := range spec.Ranks {
		if !isLost[r] {
			ranks = append(ranks, r)
			keep = append(keep, i)
		}
	}
	if len(ranks) == 0 {
		return prim.Spec{}, fmt.Errorf("core: no surviving ranks to re-form over")
	}
	ns.Ranks = ranks
	if spec.Counts != nil {
		counts := make([][]int, len(keep))
		for i, pi := range keep {
			row := make([]int, len(keep))
			for j, pj := range keep {
				row[j] = spec.Counts[pi][pj]
			}
			counts[i] = row
		}
		ns.Counts = counts
	}
	if spec.Kind == prim.Reduce || spec.Kind == prim.Broadcast {
		rootRank := spec.Ranks[spec.Root]
		if isLost[rootRank] {
			return prim.Spec{}, fmt.Errorf("core: %v root rank %d was lost; cannot re-form", spec.Kind, rootRank)
		}
		for i, r := range ranks {
			if r == rootRank {
				ns.Root = i
				break
			}
		}
	}
	return ns, nil
}

// Future is the awaitable result of Launch (or of a Batch of
// launches): completion, error state, and core-execution timing.
type Future struct {
	engine   *sim.Engine
	cond     sim.Cond
	pending  int
	total    int
	err      error
	coreExec sim.Duration // max across joined completions
}

func newFuture(e *sim.Engine, n int) *Future {
	return &Future{engine: e, pending: n, total: n}
}

// completeOne records one completed run; the future resolves when all
// joined runs have completed. It runs in poller context. The first
// non-nil error sticks (a batch reports one representative failure).
func (f *Future) completeOne(core sim.Duration, err error) {
	if core > f.coreExec {
		f.coreExec = core
	}
	if err != nil && f.err == nil {
		f.err = err
	}
	f.pending--
	if f.pending <= 0 {
		f.cond.Broadcast(f.engine)
	}
}

// Wait blocks the calling process until the future resolves and
// returns its error state: nil on normal completion, or the typed
// *RankLostError (errors.Is(err, ErrRankLost)) when a participating
// rank was killed while the run was in flight. On error the recv
// buffer's contents are unspecified; Close the handle and Reform over
// the survivors to retry.
func (f *Future) Wait(p *sim.Process) error {
	for f.pending > 0 {
		f.cond.Wait(p)
	}
	return f.err
}

// Done reports whether the future has resolved (non-blocking).
func (f *Future) Done() bool { return f.pending <= 0 }

// Err returns the future's error state; meaningful once Done.
func (f *Future) Err() error { return f.err }

// CoreExecTime returns the core-execution time of the completed run;
// for a joined (Batch) future it is the maximum across the batch.
// Meaningful once Done.
func (f *Future) CoreExecTime() sim.Duration { return f.coreExec }

// Runs returns how many launches the future joins (1 for Launch).
func (f *Future) Runs() int { return f.total }

// BatchItem is one launch in a Batch: a collective handle plus its
// buffers for this run.
type BatchItem struct {
	C          *Collective
	Send, Recv *mem.Buffer
}

// Batch submits several collective runs at once and returns a joined
// future that resolves when all of them complete. Every item is
// validated before anything is submitted, so a bad item is rejected
// with no partial batch in flight. The items' submission order is the
// slice order — DFCCL's daemon resolves any cross-rank disorder, so
// ranks may batch the same collectives in different orders. Every
// item's buffers belong to its run until the joined future resolves, as
// for Launch.
//
// Submission is not transactional beyond that preflight: SQ inserts
// can block when the submission queue is full, and if another process
// closes a batched collective or destroys the context in that window,
// Batch returns the mid-batch error while the already-submitted items
// stay in flight (they complete normally against the discarded
// future).
func Batch(p *sim.Process, items ...BatchItem) (*Future, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	for _, it := range items {
		if it.C == nil {
			return nil, fmt.Errorf("core: nil collective in batch")
		}
		if err := it.C.preflight(it.Send, it.Recv); err != nil {
			return nil, err
		}
	}
	f := newFuture(items[0].C.r.sys.Engine, len(items))
	for _, it := range items {
		if err := it.C.submit(p, launch{send: it.Send, recv: it.Recv, fut: f}); err != nil {
			// Unreachable after preflight; surface it rather than hang.
			return nil, err
		}
	}
	return f, nil
}
