package cluster

import (
	"cmp"
	"slices"

	"dfccl/internal/sim"
)

// Pending is one queued job as the admission policy sees it. The slice
// Admit receives is the driver's own, valid for that call only.
type Pending struct {
	// Spec is the job waiting for placement.
	Spec JobSpec
	// Arrived is when the job entered the cluster (requeues keep the
	// original arrival, so priority ties still break by age).
	Arrived sim.Time
	// Requeued marks a job re-entering the queue after a typed abort.
	Requeued bool
}

// View is the control-plane state a policy reads at one admission
// pass. Slices are indexed by global rank except NICLoad (per
// machine). They are the driver's own, valid for the Admit call only.
type View struct {
	// Load is the number of admitted jobs currently holding each GPU.
	Load []int
	// Slots is the per-GPU concurrency cap.
	Slots int
	// Lost marks ranks currently killed; placements must skip them.
	Lost []bool
	// MachineOf maps each rank to its machine index.
	MachineOf []int
	// NICLoad is the bytes accrued on each machine's NIC-tier links so
	// far — the congestion signal bin-packing sorts on. Nil when the
	// fabric is unshared or single-machine.
	NICLoad []float64
	// Now is the pass's virtual time.
	Now sim.Time
}

// free reports whether rank r can take one more job.
func (v *View) free(r int) bool {
	return !v.Lost[r] && v.Load[r] < v.Slots
}

// Policy decides admission order and placement. Admit inspects the
// pending queue and returns the index of the job to admit next along
// with its rank placement, or ok=false when nothing currently fits
// (the full-pool rejection). Admit is re-invoked until it refuses, so
// one pass may admit several jobs.
type Policy interface {
	// Name identifies the policy in reports and figures.
	Name() string
	// Admit picks the next job and placement (see Policy).
	Admit(pending []Pending, v View) (idx int, ranks []int, ok bool)
}

// firstFit places size ranks onto the lowest-numbered free GPUs, or
// nil if fewer than size are free. Low-numbered GPUs fill first, so
// concurrent jobs overlap on them — deliberately: overlapping rank
// sets contending for the same daemons are the scenario under test.
func firstFit(size int, v View) []int {
	var ranks []int
	for r := 0; r < len(v.Load) && len(ranks) < size; r++ {
		if v.free(r) {
			ranks = append(ranks, r)
		}
	}
	if len(ranks) < size {
		return nil
	}
	return ranks
}

// leastLoaded places size ranks onto the GPUs with the lowest
// (job count, machine NIC bytes, rank) — bin-packing by slot load
// first and NIC-tier congestion second, so new jobs spread away from
// machines whose NICs are already moving the most traffic.
func leastLoaded(size int, v View) []int {
	var cand []int
	for r := 0; r < len(v.Load); r++ {
		if v.free(r) {
			cand = append(cand, r)
		}
	}
	if len(cand) < size {
		return nil
	}
	nic := func(r int) float64 {
		if v.NICLoad == nil {
			return 0
		}
		return v.NICLoad[v.MachineOf[r]]
	}
	slices.SortStableFunc(cand, func(ra, rb int) int {
		return cmp.Or(cmp.Compare(v.Load[ra], v.Load[rb]), cmp.Compare(nic(ra), nic(rb)), cmp.Compare(ra, rb))
	})
	// Rank order inside the job is ascending: the ring wiring (and the
	// solo reference) must not depend on the sort's tie-breaking.
	ranks := cand[:size]
	slices.Sort(ranks)
	return ranks
}

// FIFO admits strictly in queue order with first-fit placement: the
// job at the head blocks everything behind it until it fits. This is
// the policy that exhibits priority inversion — a low-priority burst
// at the head starves high-priority arrivals.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Admit implements Policy: head of queue, first fit, no backfill.
func (FIFO) Admit(pending []Pending, v View) (int, []int, bool) {
	if len(pending) == 0 {
		return 0, nil, false
	}
	if ranks := firstFit(pending[0].Spec.Size, v); ranks != nil {
		return 0, ranks, true
	}
	return 0, nil, false
}

// PriorityPolicy admits the highest-priority placeable job first
// (ties by arrival, then ID), with first-fit placement. High-priority
// arrivals overtake a queued low-priority burst — the fix for FIFO's
// priority inversion, and small jobs behind an unplaceable head may
// backfill.
type PriorityPolicy struct{}

// Name implements Policy.
func (PriorityPolicy) Name() string { return "priority" }

// Admit implements Policy: admit the first job in (priority desc,
// arrival, ID) order that fits. First fit takes the lowest free GPUs, so
// a job fits when it needs no more than there are, and the first that
// fits is the least of those that do: one pass, nothing sorted.
func (PriorityPolicy) Admit(pending []Pending, v View) (int, []int, bool) {
	free := 0
	for r := range v.Load {
		if v.free(r) {
			free++
		}
	}
	best := -1
	for i := range pending {
		if p := &pending[i]; p.Spec.Size <= free && (best < 0 || p.before(&pending[best])) {
			best = i
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	return best, firstFit(pending[best].Spec.Size, v), true
}

// before is PriorityPolicy's order: priority descending, then arrival,
// then ID.
func (p *Pending) before(q *Pending) bool {
	return cmp.Or(cmp.Compare(q.Spec.Priority, p.Spec.Priority), cmp.Compare(p.Arrived, q.Arrived), cmp.Compare(p.Spec.ID, q.Spec.ID)) < 0
}

// BinPack admits in queue order (with backfill) but places onto the
// least-loaded GPUs by (job count, NIC-tier bytes), spreading tenants
// across machines instead of piling onto the lowest ranks.
type BinPack struct{}

// Name implements Policy.
func (BinPack) Name() string { return "binpack" }

// Admit implements Policy: queue order with backfill, least-loaded
// placement.
func (BinPack) Admit(pending []Pending, v View) (int, []int, bool) {
	for i := range pending {
		if ranks := leastLoaded(pending[i].Spec.Size, v); ranks != nil {
			return i, ranks, true
		}
	}
	return 0, nil, false
}
