package cluster

import (
	"reflect"
	"strings"
	"testing"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// mkView builds a synthetic control-plane snapshot for unit tests.
func mkView(load []int, slots int, lost []int, machineOf []int, nic []float64) View {
	l := make([]bool, len(load))
	for _, r := range lost {
		l[r] = true
	}
	if machineOf == nil {
		machineOf = make([]int, len(load))
	}
	return View{Load: load, Slots: slots, Lost: l, MachineOf: machineOf, NICLoad: nic}
}

func job(id, size, pri int, arrived sim.Duration) Pending {
	return Pending{
		Spec:    JobSpec{ID: id, Kind: "dp", Size: size, Priority: pri, Iterations: 1},
		Arrived: sim.Time(arrived),
	}
}

// TestPoliciesFullPoolRejection: when every GPU is at its slot cap, all
// three policies must refuse — the full-pool rejection path.
func TestPoliciesFullPoolRejection(t *testing.T) {
	v := mkView([]int{2, 2, 2, 2}, 2, nil, nil, nil)
	pending := []Pending{job(1, 2, 0, 0), job(2, 2, 5, 0)}
	for _, pol := range []Policy{FIFO{}, PriorityPolicy{}, BinPack{}} {
		if _, _, ok := pol.Admit(pending, v); ok {
			t.Errorf("%s admitted into a full pool", pol.Name())
		}
	}
	// One freed slot is not enough for a size-2 job either.
	v.Load[3] = 1
	for _, pol := range []Policy{FIFO{}, PriorityPolicy{}, BinPack{}} {
		if _, _, ok := pol.Admit(pending, v); ok {
			t.Errorf("%s admitted a size-2 job with one free slot", pol.Name())
		}
	}
	// Two freed slots fit exactly one size-2 job.
	v.Load[0] = 1
	for _, pol := range []Policy{FIFO{}, PriorityPolicy{}, BinPack{}} {
		_, ranks, ok := pol.Admit(pending, v)
		if !ok {
			t.Errorf("%s refused with two free slots", pol.Name())
			continue
		}
		if !reflect.DeepEqual(ranks, []int{0, 3}) {
			t.Errorf("%s placed on %v, want [0 3]", pol.Name(), ranks)
		}
	}
}

// TestPriorityOrdering: the priority policy admits by (priority desc,
// arrival, ID); FIFO ignores priority entirely.
func TestPriorityOrdering(t *testing.T) {
	v := mkView([]int{0, 0, 0, 0}, 1, nil, nil, nil)
	pending := []Pending{
		job(1, 2, 0, 10),
		job(2, 2, 5, 30), // highest priority, latest arrival
		job(3, 2, 5, 20), // same priority, earlier arrival — wins
		job(4, 2, 1, 0),
	}
	idx, _, ok := (PriorityPolicy{}).Admit(pending, v)
	if !ok || pending[idx].Spec.ID != 3 {
		t.Errorf("priority admitted job %d, want 3 (pri 5, earliest arrival)", pending[idx].Spec.ID)
	}
	idx, _, ok = (FIFO{}).Admit(pending, v)
	if !ok || pending[idx].Spec.ID != 1 {
		t.Errorf("fifo admitted job %d, want head job 1", pending[idx].Spec.ID)
	}
	// Priority + arrival tie: lowest ID breaks it.
	pending[1].Arrived = pending[2].Arrived
	idx, _, _ = (PriorityPolicy{}).Admit(pending, v)
	if pending[idx].Spec.ID != 2 {
		t.Errorf("tie broke to job %d, want 2 (lower ID)", pending[idx].Spec.ID)
	}
}

// TestBackfill: FIFO's head blocks strictly — a too-big head job starves
// a small one behind it. Priority and bin-packing backfill past it.
func TestBackfill(t *testing.T) {
	v := mkView([]int{0, 0}, 1, nil, nil, nil)
	pending := []Pending{job(1, 4, 0, 0), job(2, 2, 0, 10)} // head wants 4 ranks, only 2 exist free
	if _, _, ok := (FIFO{}).Admit(pending, v); ok {
		t.Error("fifo backfilled past an unplaceable head")
	}
	for _, pol := range []Policy{PriorityPolicy{}, BinPack{}} {
		idx, ranks, ok := pol.Admit(pending, v)
		if !ok || pending[idx].Spec.ID != 2 {
			t.Errorf("%s did not backfill job 2 (ok=%v idx=%d)", pol.Name(), ok, idx)
			continue
		}
		if !reflect.DeepEqual(ranks, []int{0, 1}) {
			t.Errorf("%s placed on %v, want [0 1]", pol.Name(), ranks)
		}
	}
}

// TestOverlappingPlacement: with SlotsPerGPU 2, first-fit places a
// second job onto the same lowest-numbered GPUs — overlapping rank sets
// sharing daemons are the contention scenario under test — while
// least-loaded spreads onto the idle GPUs instead.
func TestOverlappingPlacement(t *testing.T) {
	v := mkView([]int{1, 1, 0, 0}, 2, nil, nil, nil)
	if ranks := firstFit(2, v); !reflect.DeepEqual(ranks, []int{0, 1}) {
		t.Errorf("firstFit = %v, want overlap on [0 1]", ranks)
	}
	if ranks := leastLoaded(2, v); !reflect.DeepEqual(ranks, []int{2, 3}) {
		t.Errorf("leastLoaded = %v, want idle [2 3]", ranks)
	}
}

// TestLeastLoadedNICTiebreak: with equal slot load, bin-packing prefers
// the machine whose NIC has moved fewer bytes.
func TestLeastLoadedNICTiebreak(t *testing.T) {
	machineOf := []int{0, 0, 1, 1}
	nic := []float64{1 << 20, 64} // machine 0's NIC is hot
	v := mkView([]int{0, 0, 0, 0}, 2, nil, machineOf, nic)
	if ranks := leastLoaded(2, v); !reflect.DeepEqual(ranks, []int{2, 3}) {
		t.Errorf("leastLoaded = %v, want cold machine [2 3]", ranks)
	}
	// Without a NIC signal (unshared fabric) it falls back to rank order.
	v.NICLoad = nil
	if ranks := leastLoaded(2, v); !reflect.DeepEqual(ranks, []int{0, 1}) {
		t.Errorf("leastLoaded = %v, want [0 1] with no NIC signal", ranks)
	}
}

// TestLostRankSkipped: placements must route around killed ranks.
func TestLostRankSkipped(t *testing.T) {
	v := mkView([]int{0, 0, 0, 0}, 1, []int{0, 2}, nil, nil)
	if ranks := firstFit(2, v); !reflect.DeepEqual(ranks, []int{1, 3}) {
		t.Errorf("firstFit = %v, want survivors [1 3]", ranks)
	}
	if ranks := leastLoaded(2, v); !reflect.DeepEqual(ranks, []int{1, 3}) {
		t.Errorf("leastLoaded = %v, want survivors [1 3]", ranks)
	}
	v = mkView([]int{0, 0, 0, 0}, 1, []int{0, 1, 2}, nil, nil)
	if ranks := firstFit(2, v); ranks != nil {
		t.Errorf("firstFit = %v, want nil with one survivor", ranks)
	}
}

// TestEmptyQueue: every policy refuses an empty queue.
func TestEmptyQueue(t *testing.T) {
	v := mkView([]int{0, 0}, 2, nil, nil, nil)
	for _, pol := range []Policy{FIFO{}, PriorityPolicy{}, BinPack{}} {
		if _, _, ok := pol.Admit(nil, v); ok {
			t.Errorf("%s admitted from an empty queue", pol.Name())
		}
	}
}

// TestAdmissionResumesAfterDrain drives the full-pool path end to end:
// a one-slot two-GPU cluster forces the second job to queue (a recorded
// rejection) until the first drains, and both must still commit
// bit-identically.
func TestAdmissionResumesAfterDrain(t *testing.T) {
	cl := topo.Server3090(2)
	jobs := []JobSpec{
		{ID: 1, Kind: "dp", Size: 2, Iterations: 2, Arrival: 0},
		{ID: 2, Kind: "zero", Size: 2, Iterations: 2, Arrival: sim.Microsecond},
	}
	rep, err := Run(Config{Cluster: cl, Jobs: jobs, Policy: FIFO{}, SlotsPerGPU: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Rejections == 0 {
		t.Error("no rejection recorded on a full pool")
	}
	if rep.Jobs[1].Admitted <= rep.Jobs[0].Admitted {
		t.Errorf("job 2 admitted at %v, not after job 1 at %v", rep.Jobs[1].Admitted, rep.Jobs[0].Admitted)
	}
	if rep.Jobs[1].Wait == 0 {
		t.Error("job 2 reports zero queueing delay despite a full pool")
	}
}

// TestKillDuringAdmission drives the KillRank-during-admission edge: a
// kill lands right as the first job runs, aborting it with the typed
// error. The driver must requeue it, and the policy must re-place it on
// survivors only — the job still commits every iteration bit-identically
// on its second placement.
func TestKillDuringAdmission(t *testing.T) {
	cl := topo.Server3090(4)
	jobs := []JobSpec{{ID: 1, Kind: "dp", Size: 2, Iterations: 3, Arrival: 0, Compute: 20 * sim.Microsecond}}
	rep, err := Run(Config{
		Cluster: cl, Jobs: jobs, Policy: FIFO{}, SlotsPerGPU: 2,
		Kills: []KillEvent{{At: 30 * sim.Microsecond, Rank: 0}},
	})
	if err != nil {
		t.Fatalf("Run: %v (err=%q hang=%v)", err, rep.Err, rep.Hang)
	}
	if rep.KillsApplied != 1 {
		t.Fatalf("KillsApplied = %d, want 1", rep.KillsApplied)
	}
	j := rep.Jobs[0]
	if rep.Requeues == 0 || j.Attempts < 2 {
		t.Fatalf("job was never requeued (requeues=%d attempts=%d)", rep.Requeues, j.Attempts)
	}
	for _, r := range j.Ranks {
		if r == 0 {
			t.Fatalf("final placement %v includes the killed rank", j.Ranks)
		}
	}
	if !j.BitIdentical || j.Committed != 3 {
		t.Fatalf("job did not recommit bit-identically (committed=%d)", j.Committed)
	}
	// The committed trajectory must show the membership change.
	if len(j.Trajectory) != 3 {
		t.Fatalf("trajectory has %d entries, want 3", len(j.Trajectory))
	}
}

// TestKillNeverInitedRank: killing a rank no job ever initialized is a
// no-op by the library's semantics; the driver must count it as skipped
// and the rank must stay placeable.
func TestKillNeverInitedRank(t *testing.T) {
	cl := topo.Server3090(4)
	jobs := []JobSpec{{ID: 1, Kind: "zero", Size: 2, Iterations: 1, Arrival: 10 * sim.Microsecond}}
	rep, err := Run(Config{
		Cluster: cl, Jobs: jobs, Policy: FIFO{}, SlotsPerGPU: 2,
		// Fires before any worker has touched rank 3.
		Kills: []KillEvent{{At: sim.Microsecond, Rank: 3}},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.KillsSkipped != 1 || rep.KillsApplied != 0 {
		t.Fatalf("kills applied=%d skipped=%d, want 0/1 for a never-inited rank", rep.KillsApplied, rep.KillsSkipped)
	}
	if !rep.Jobs[0].BitIdentical {
		t.Fatal("job diverged")
	}
}

// TestUnplaceablePendingFails: when kills shrink the cluster below the
// queue head's size and nothing is running, the driver must fail the
// stranded jobs instead of hanging.
func TestUnplaceablePendingFails(t *testing.T) {
	cl := topo.Server3090(2)
	jobs := []JobSpec{
		{ID: 1, Kind: "dp", Size: 2, Iterations: 1, Arrival: 0},
		{ID: 2, Kind: "dp", Size: 2, Iterations: 1, Arrival: 400 * sim.Microsecond},
	}
	rep, err := Run(Config{
		Cluster: cl, Jobs: jobs, Policy: FIFO{},
		// Rank 1 dies between the jobs: job 2 can never get 2 ranks.
		Kills: []KillEvent{{At: 300 * sim.Microsecond, Rank: 1}},
	})
	if err == nil {
		t.Fatal("Run succeeded with an unplaceable job")
	}
	if rep.Hang {
		t.Fatalf("driver hung instead of failing cleanly: %q", rep.Err)
	}
	if !rep.Jobs[1].Failed {
		t.Error("stranded job 2 not marked failed")
	}
}

// outOfRange admits an index one past the pending queue.
type outOfRange struct{}

func (outOfRange) Name() string { return "out-of-range" }

func (outOfRange) Admit(pending []Pending, _ View) (int, []int, bool) {
	return len(pending), []int{0, 1}, true
}

// TestInvalidAdmissionIndexFails: a policy that returns an index past
// the queue is a typed failure naming the policy, not a panic of the
// admission process.
func TestInvalidAdmissionIndexFails(t *testing.T) {
	jobs := []JobSpec{{ID: 1, Kind: "dp", Size: 2, Iterations: 1, Arrival: 0}}
	rep, err := Run(Config{Cluster: topo.Server3090(2), Jobs: jobs, Policy: outOfRange{}})
	if err == nil {
		t.Fatal("Run accepted an out-of-range admission")
	}
	if msg := err.Error(); !strings.Contains(msg, "out-of-range") || strings.Contains(msg, "panicked") {
		t.Fatalf("error %q does not name the policy or reports a panic", msg)
	}
	if rep.Hang {
		t.Fatalf("driver hung instead of failing cleanly: %q", rep.Err)
	}
}
