package workload

import (
	"errors"

	"dfccl/internal/core"
	"dfccl/internal/sim"
)

// Progress is what a tenant has committed so far. It outlives attempts:
// a re-formed or requeued tenant resumes from Next, its first
// uncommitted iteration.
type Progress struct {
	// Next is the iteration cursor (== the number committed).
	Next int
	// Trajectory records the membership that committed each iteration;
	// Hashes fingerprints the lead member's verified output of each.
	Trajectory [][]int
	Hashes     []uint64
}

// Reference recomputes the pure out-of-sim fingerprints over the
// committed trajectory and reports whether every committed hash matches
// them. w is any instance of the tenant's workload.
func (pr *Progress) Reference(w Workload) (ref []uint64, identical bool) {
	identical = len(pr.Hashes) == pr.Next
	for it, members := range pr.Trajectory {
		h := w.RefHash(members, it)
		ref = append(ref, h)
		if it >= len(pr.Hashes) || pr.Hashes[it] != h {
			identical = false
		}
	}
	return ref, identical
}

// Attempt is one formation of a tenant's group: a fixed membership
// committing iterations from the tenant's cursor until all are
// committed, a rank loss aborts the attempt's collectives, or the
// controller's stop predicate asks for a clean end at the next
// iteration boundary. The controller spawns one process per member,
// each calling Member, and reads Aborted / TypedErrors / Err once all
// have returned. All access happens from simulated processes, which the
// engine serializes.
type Attempt struct {
	members    []int
	iterations int
	compute    sim.Duration
	progress   *Progress
	stop       func() bool
	barA, barB *sim.Barrier

	// Aborted reports the attempt ended on an error: the typed
	// core.ErrRankLost (re-form or requeue and retry) or a fatal one.
	Aborted bool
	// TypedErrors counts members' opens/futures that resolved with
	// core.ErrRankLost.
	TypedErrors int
	// Err is the first non-typed error — fatal to the run.
	Err error
}

// NewAttempt forms members into a group that commits pr up to
// iterations, sleeping compute before each one. stop, when non-nil, is
// the controller's own reason to end the attempt early.
func NewAttempt(members []int, iterations int, compute sim.Duration, pr *Progress, stop func() bool) *Attempt {
	return &Attempt{
		members: members, iterations: iterations, compute: compute, progress: pr, stop: stop,
		barA: sim.NewBarrier("workload.barrierA", len(members)),
		barB: sim.NewBarrier("workload.barrierB", len(members)),
	}
}

// fail ends the attempt: both commit barriers are poisoned so nobody
// blocks on a member that will never arrive.
func (a *Attempt) fail(e *sim.Engine, err error) {
	if errors.Is(err, core.ErrRankLost) {
		a.TypedErrors++
	} else if a.Err == nil {
		a.Err = err
	}
	a.Aborted = true
	a.barA.Poison(e)
	a.barB.Poison(e)
}

// Member is position pos's side of the attempt: open w's collectives
// over the membership, then per iteration sleep the compute time, run
// and verify the iteration, meet at barrier A, let the lead commit the
// trajectory, hash and cursor, and meet at barrier B so nobody starts
// the next iteration before the commit. Tearing w down afterwards is
// the caller's job — what must drain first depends on who else shares
// the rank context.
func (a *Attempt) Member(p *sim.Process, rc *core.RankContext, w Workload, pos int) {
	if err := w.Setup(p, rc, a.members); err != nil {
		a.fail(p.Engine(), err)
		return
	}
	pr := a.progress
	for !a.Aborted && (a.stop == nil || !a.stop()) && pr.Next < a.iterations {
		it := pr.Next
		p.Sleep(a.compute)
		hash, err := w.Iter(p, rc, a.members, pos, it)
		if err != nil {
			a.fail(p.Engine(), err)
			return
		}
		if !a.barA.Wait(p) {
			return
		}
		if pos == 0 {
			pr.Trajectory = append(pr.Trajectory, append([]int(nil), a.members...))
			pr.Hashes = append(pr.Hashes, hash)
			pr.Next++
		}
		if !a.barB.Wait(p) {
			return
		}
	}
}
