package cluster

import (
	"errors"
	"fmt"
	"slices"

	"dfccl/internal/core"
	"dfccl/internal/fabric"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
	"dfccl/internal/workload"
)

// jobState is one job's control-plane record. All access happens from
// simulated processes, which the engine serializes.
type jobState struct {
	spec JobSpec
	res  *JobResult

	admittedOnce bool
	attempts     int

	// Per-attempt data-plane state.
	members []int
	join    *sim.Cond
	running int

	// progress persists across attempts: a requeued job resumes from
	// its first uncommitted iteration.
	progress workload.Progress
}

// driver is the shared run state.
type driver struct {
	cfg Config
	e   *sim.Engine
	sys *core.System
	net *fabric.Network
	rep *Report

	machineOf []int
	pending   []*jobState
	load      []int
	placed    []*jobState // admitted jobs currently holding slots
	held      []int       // checkLoad's recount of load
	arrivals  int         // jobs not yet released by the injector
	finished  int         // jobs done or failed
	wake      *sim.Cond
	otherErr  error

	// lostBuf, nicBuf and pendingBuf back what view and pendingView hand
	// the policy, rewritten at every admission pass.
	lostBuf    []bool
	nicBuf     []float64
	pendingBuf []Pending
}

func (d *driver) fail(err error) {
	if d.otherErr == nil {
		d.otherErr = err
	}
}

// stopped is every attempt's stop predicate: a fatal error anywhere in
// the run ends all jobs at their next iteration boundary.
func (d *driver) stopped() bool { return d.otherErr != nil }

// view assembles the policy's control-plane snapshot.
func (d *driver) view() View {
	d.lostBuf = d.lostBuf[:0]
	for r := range d.load {
		d.lostBuf = append(d.lostBuf, d.sys.RankLost(r))
	}
	d.nicBuf = d.net.NICLoad(d.nicBuf)
	return View{
		Load:      d.load,
		Slots:     d.cfg.SlotsPerGPU,
		Lost:      d.lostBuf,
		MachineOf: d.machineOf,
		NICLoad:   d.nicBuf,
		Now:       d.e.Now(),
	}
}

// pendingView projects the queue for the policy.
func (d *driver) pendingView() []Pending {
	d.pendingBuf = d.pendingBuf[:0]
	for _, js := range d.pending {
		d.pendingBuf = append(d.pendingBuf, Pending{Spec: js.spec, Arrived: js.res.Arrival, Requeued: js.attempts > 0})
	}
	return d.pendingBuf
}

// tryAdmit re-runs the policy until it refuses, placing each admitted
// job and spawning its data plane.
func (d *driver) tryAdmit(p *sim.Process) {
	for len(d.pending) > 0 {
		idx, ranks, ok := d.cfg.Policy.Admit(d.pendingView(), d.view())
		if !ok {
			d.rep.Rejections++
			return
		}
		if idx < 0 || idx >= len(d.pending) || len(ranks) != d.pending[idx].spec.Size {
			d.fail(fmt.Errorf("cluster: policy %s returned invalid admission (idx %d of %d pending, %d ranks)",
				d.cfg.Policy.Name(), idx, len(d.pending), len(ranks)))
			return
		}
		js := d.pending[idx]
		d.pending = append(d.pending[:idx], d.pending[idx+1:]...)
		d.place(p, js, ranks)
	}
}

// place starts one admitted job on its placement: slots are taken, the
// per-member workers spawn, and a monitor process waits for the attempt
// to finish, releasing the slots and either completing or requeueing
// the job.
func (d *driver) place(p *sim.Process, js *jobState, ranks []int) {
	d.rep.Admissions++
	js.attempts++
	js.res.Attempts = js.attempts
	if !js.admittedOnce {
		js.admittedOnce = true
		js.res.Admitted = d.e.Now()
		js.res.Wait = js.res.Admitted.Sub(js.res.Arrival)
	}
	for _, r := range ranks {
		d.load[r]++
	}
	js.members = append([]int(nil), ranks...)
	js.res.Ranks = js.members
	d.placed = append(d.placed, js)
	d.checkLoad()
	att := workload.NewAttempt(js.members, js.spec.Iterations, js.spec.compute(), &js.progress, d.stopped)
	js.running = len(ranks)
	for pos, rank := range ranks {
		pos, rank := pos, rank
		d.e.Spawn(fmt.Sprintf("cluster.job%d.w%d", js.spec.ID, rank), func(p *sim.Process) {
			w, _ := js.spec.workload()
			att.Member(p, d.sys.Init(p, rank), w, pos)
			// A dead rank's registrations are auto-released by its
			// exiting poller; live ranks close their handles so the
			// pool recycles the communicators. The job's own futures
			// were all waited inside Iter, so Close never sees
			// outstanding runs — and there is no WaitAll here: waiting
			// for the shared rank context to go fully idle would couple
			// this job's teardown to every other tenant on the GPU.
			if !d.sys.RankLost(rank) {
				w.Teardown(p)
			}
			js.running--
			js.join.Broadcast(p.Engine())
		})
	}
	d.e.Spawn(fmt.Sprintf("cluster.job%d.monitor", js.spec.ID), func(p *sim.Process) {
		for js.running > 0 {
			js.join.Wait(p)
		}
		for _, r := range js.members {
			d.load[r]--
		}
		d.placed = slices.DeleteFunc(d.placed, func(o *jobState) bool { return o == js })
		d.checkLoad()
		if att.Err != nil {
			d.fail(att.Err)
		}
		switch {
		case js.progress.Next >= js.spec.Iterations:
			js.res.Done = d.e.Now()
			js.res.Latency = js.res.Done.Sub(js.res.Arrival)
			d.finished++
		case att.Aborted && d.otherErr == nil:
			d.rep.Requeues++
			if js.attempts >= d.attemptCap() {
				js.res.Failed = true
				d.finished++
				d.fail(fmt.Errorf("cluster: job %d exceeded %d attempts", js.spec.ID, js.attempts))
			} else {
				d.pending = append(d.pending, js)
			}
		default:
			js.res.Failed = true
			d.finished++
			if d.otherErr == nil {
				d.fail(fmt.Errorf("cluster: job %d stopped at iteration %d without abort", js.spec.ID, js.progress.Next))
			}
		}
		d.wake.Broadcast(p.Engine())
	})
}

// checkLoad panics unless every rank's load is the number of running
// jobs placed on it: a slot taken or given back twice, or by the wrong
// job, would skew admission long before a negative or leftover load
// showed it.
func (d *driver) checkLoad() {
	clear(d.held)
	for _, js := range d.placed {
		for _, r := range js.members {
			d.held[r]++
		}
	}
	for r, n := range d.load {
		if n != d.held[r] {
			panic(fmt.Sprintf("cluster: invariant load-matches-placements: rank %d has load %d, %d running job(s) placed on it", r, n, d.held[r]))
		}
	}
}

// attemptCap bounds requeues so a livelock becomes a failure.
func (d *driver) attemptCap() int { return 3 + len(d.cfg.Kills) }

// maxVirtual bounds a run's virtual time so any hang becomes a reported
// failure.
const maxVirtual = 600 * sim.Second

// newSystem builds the engine, fabric, and DFCCL deployment a cluster
// run — multi-tenant or solo — executes on.
func newSystem(cl *topo.Cluster, oversub float64, rec *trace.Recorder) (*sim.Engine, *fabric.Network, *core.System) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(maxVirtual)
	var net *fabric.Network
	if oversub > 0 {
		net = fabric.Shared(cl, fabric.OversubConfig(oversub))
	} else {
		net = fabric.Unshared(cl)
	}
	ccfg := core.DefaultConfig()
	// Multi-tenant daemons are priority-aware: the per-GPU task queue
	// orders by the jobs' priorities, so a high-priority tenant's
	// launches overtake queued low-priority work even on shared GPUs.
	ccfg.Order = core.OrderPriority
	ccfg.Network = net
	ccfg.Recorder = rec
	return e, net, core.NewSystem(e, cl, ccfg)
}

// Run executes the cluster scenario and returns its report. The
// returned error is non-nil exactly when the report is not Ok.
func Run(cfg Config) (*Report, error) {
	if cfg.SlotsPerGPU <= 0 {
		cfg.SlotsPerGPU = 2
	}
	if cfg.Policy == nil {
		cfg.Policy = FIFO{}
	}
	rep := &Report{Policy: cfg.Policy.Name(), Jobs: make([]JobResult, len(cfg.Jobs))}
	if err := cfg.validate(); err != nil {
		rep.Err = err.Error()
		return rep, err
	}

	e, net, sys := newSystem(cfg.Cluster, cfg.Oversub, cfg.Recorder)

	d := &driver{
		cfg:      cfg,
		e:        e,
		sys:      sys,
		net:      net,
		rep:      rep,
		load:     make([]int, cfg.Cluster.Size()),
		placed:   make([]*jobState, 0, cfg.Cluster.Size()*cfg.SlotsPerGPU),
		held:     make([]int, cfg.Cluster.Size()),
		arrivals: len(cfg.Jobs),
		wake:     sim.NewCond("cluster.wake"),
	}
	d.machineOf = make([]int, cfg.Cluster.Size())
	for r, g := range cfg.Cluster.GPUs {
		d.machineOf[r] = g.Machine
	}
	states := make([]*jobState, len(cfg.Jobs))
	for i := range cfg.Jobs {
		rep.Jobs[i] = JobResult{Spec: cfg.Jobs[i]}
		states[i] = &jobState{
			spec: cfg.Jobs[i],
			res:  &rep.Jobs[i],
			join: sim.NewCond("cluster.join"),
		}
	}

	// Control plane, part 1: the arrival injector releases jobs into
	// the pending queue at their trace times.
	order := byArrival(cfg.Jobs)
	e.Spawn("cluster.arrivals", func(p *sim.Process) {
		for _, i := range order {
			js := states[i]
			if dl := js.spec.Arrival - p.Now().Sub(sim.Time(0)); dl > 0 {
				p.Sleep(dl)
			}
			js.res.Arrival = p.Now()
			d.pending = append(d.pending, js)
			d.arrivals--
			d.wake.Broadcast(p.Engine())
		}
	})

	// Fault injector: kills land at their virtual times, independent of
	// admission structure, so they hit jobs mid-collective and races
	// with in-flight admissions.
	if len(cfg.Kills) > 0 {
		e.Spawn("cluster.kills", func(p *sim.Process) {
			for _, ev := range cfg.Kills {
				if dl := ev.At - p.Now().Sub(sim.Time(0)); dl > 0 {
					p.Sleep(dl)
				}
				if sys.KillRank(ev.Rank) {
					rep.KillsApplied++
				} else {
					rep.KillsSkipped++ // already dead, or never initialized
				}
			}
		})
	}

	// Control plane, part 2: the admission controller re-runs the
	// policy on every arrival, completion, or requeue.
	e.Spawn("cluster.admission", func(p *sim.Process) {
		for {
			if d.otherErr == nil {
				d.tryAdmit(p)
			}
			if len(d.placed) == 0 && len(d.pending) > 0 && d.arrivals == 0 {
				// Nothing running, nothing arriving, nothing placeable:
				// the remaining queue can never be served (e.g. kills
				// shrank the cluster below the head job's size).
				for _, js := range d.pending {
					js.res.Failed = true
					d.finished++
				}
				d.pending = nil
				d.fail(errors.New("cluster: pending jobs can never be placed"))
			}
			if len(d.placed) == 0 && (d.finished >= len(cfg.Jobs) || (d.otherErr != nil && d.arrivals == 0)) {
				break
			}
			d.wake.Wait(p)
		}
		// Final teardown: destroy every surviving context so the
		// pollers exit and the engine drains — the no-leak guarantee.
		for r := 0; r < cfg.Cluster.Size(); r++ {
			if !sys.RankLost(r) {
				sys.Init(p, r).Destroy(p)
			}
		}
	})

	if err := e.Run(); err != nil {
		rep.Hang = true
		if rep.Err == "" {
			rep.Err = fmt.Sprintf("cluster: %v (blocked: %v)", err, e.BlockedProcesses())
		}
	}
	rep.Elapsed = e.Now().Sub(sim.Time(0))
	rep.Fingerprint = e.Fingerprint()
	rep.PoolCreated = sys.CommsCreated()
	rep.PoolReused = sys.CommsReused()
	rep.JobBytes = net.JobBytes()
	if d.otherErr != nil && rep.Err == "" {
		rep.Err = d.otherErr.Error()
	}

	// Solo reference, computed outside the simulation: every committed
	// iteration's fingerprint must equal the job running alone over the
	// membership that committed it.
	for i, js := range states {
		j := &rep.Jobs[i]
		j.Committed, j.Trajectory, j.Hashes = js.progress.Next, js.progress.Trajectory, js.progress.Hashes
		w, _ := j.Spec.workload()
		var identical bool
		j.RefHashes, identical = js.progress.Reference(w)
		j.BitIdentical = identical && j.Committed == j.Spec.Iterations
	}
	if !rep.Ok() {
		if rep.Err == "" {
			rep.Err = "cluster: jobs incomplete or diverged"
		}
		return rep, errors.New(rep.Err)
	}
	return rep, nil
}

// SoloHashes runs one job alone — same cluster shape, same pricing
// model, same placement — and returns its per-iteration fingerprints:
// the in-simulation solo reference the multi-tenant gates compare
// against (the out-of-sim refHash is the pure counterpart). It is only
// meaningful for jobs whose committed trajectory kept one membership.
func SoloHashes(cl *topo.Cluster, spec JobSpec, ranks []int, oversub float64) ([]uint64, error) {
	if _, err := spec.workload(); err != nil {
		return nil, err
	}
	e, _, sys := newSystem(cl, oversub, nil)

	var pr workload.Progress
	att := workload.NewAttempt(ranks, spec.Iterations, spec.compute(), &pr, nil)
	running := len(ranks)
	for pos, rank := range ranks {
		pos, rank := pos, rank
		e.Spawn(fmt.Sprintf("solo.job%d.w%d", spec.ID, rank), func(p *sim.Process) {
			w, _ := spec.workload()
			att.Member(p, sys.Init(p, rank), w, pos)
			w.Teardown(p)
			running--
			if running == 0 {
				for _, r := range ranks {
					sys.Init(p, r).Destroy(p)
				}
			}
		})
	}
	err := e.Run()
	switch {
	case att.Err != nil:
		err = att.Err
	case err != nil:
		err = fmt.Errorf("cluster: solo run: %v", err)
	}
	return pr.Hashes, err
}
