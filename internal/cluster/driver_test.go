package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// uniformTrajectory reports whether every committed iteration ran on
// the same membership (i.e. requeues never moved the job), which is
// when an in-simulation solo re-run over Ranks is comparable.
func uniformTrajectory(j *JobResult) bool {
	for _, m := range j.Trajectory {
		if !reflect.DeepEqual(m, j.Ranks) {
			return false
		}
	}
	return len(j.Trajectory) > 0
}

// checkNoLeak retries GC until the goroutine count returns to baseline
// (finished sim processes exit asynchronously after their final yield).
func checkNoLeak(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; i < 50; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestClusterProperty is satellite 1's seeded sweep: 48 random cases of
// Poisson traces × admission policies × fault schedules × fabric
// sharing, each asserting the multi-tenant safety properties —
//
//   - every job commits all its iterations, element-verified in-run and
//     bit-identical to the pure solo reference over its trajectory;
//   - jobs with a stable placement also match an actual solo re-run of
//     the same spec on the same ranks (sampled, it is a second full
//     simulation per job);
//   - per-tenant fabric attribution covers exactly the jobs that ran;
//   - the run drains without leaking a single goroutine.
//
// Every case is reproducible alone from its name:
//
//	go test ./internal/cluster/ -race -run 'TestClusterProperty/seed07$'
func TestClusterProperty(t *testing.T) {
	cl := topo.MultiNode3090(2) // 2 machines × 4 GPUs
	policies := []Policy{FIFO{}, PriorityPolicy{}, BinPack{}}
	for seed := int64(1); seed <= 48; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			jobs, err := Generate(GenConfig{
				Seed:         seed,
				Jobs:         4 + rng.Intn(6),
				Rate:         2000, // ~0.5ms mean gap: admissions overlap heavily
				AutoAlgoFrac: 0.25,
			})
			if err != nil {
				t.Fatal(err)
			}
			pol := policies[rng.Intn(len(policies))]
			oversub := 0.0
			if rng.Intn(2) == 0 {
				oversub = 4
			}
			// Half the cases inject a kill. At most one rank dies, so
			// the 7 survivors always fit the largest (size-4) job and
			// every requeue can be re-placed.
			var kills []KillEvent
			if rng.Intn(2) == 0 {
				kills = append(kills, KillEvent{
					At:   sim.Duration(rng.Intn(3000)+50) * sim.Microsecond,
					Rank: rng.Intn(cl.Size()),
				})
			}
			runtime.GC()
			baseline := runtime.NumGoroutine()
			rep, err := Run(Config{
				Cluster: cl, Jobs: jobs, Policy: pol,
				Oversub: oversub, Kills: kills,
			})
			if err != nil {
				t.Fatalf("policy %s kills %v: %v (hang=%v blocked err=%q)",
					pol.Name(), kills, err, rep.Hang, rep.Err)
			}
			for i := range rep.Jobs {
				j := &rep.Jobs[i]
				if !j.BitIdentical {
					t.Errorf("job %d (%s, ranks %v): hashes %x diverged from reference %x",
						j.Spec.ID, j.Spec.Kind, j.Ranks, j.Hashes, j.RefHashes)
				}
				if j.Committed != j.Spec.Iterations {
					t.Errorf("job %d committed %d/%d iterations", j.Spec.ID, j.Committed, j.Spec.Iterations)
				}
				if rep.JobBytes[j.Spec.ID] <= 0 {
					t.Errorf("job %d moved no attributed bytes", j.Spec.ID)
				}
			}
			if len(rep.JobBytes) != len(jobs) {
				t.Errorf("fabric attributed %d tenants, want %d: %v", len(rep.JobBytes), len(jobs), rep.JobBytes)
			}
			// Sampled in-simulation solo cross-check (the pure
			// reference already covered every job above).
			pick := rng.Intn(len(rep.Jobs))
			if j := &rep.Jobs[pick]; uniformTrajectory(j) {
				solo, err := SoloHashes(cl, j.Spec, j.Ranks, oversub)
				if err != nil {
					t.Fatalf("solo re-run of job %d: %v", j.Spec.ID, err)
				}
				if !reflect.DeepEqual(solo, j.Hashes) {
					t.Errorf("job %d multi-tenant hashes %x != solo re-run %x", j.Spec.ID, j.Hashes, solo)
				}
			}
			checkNoLeak(t, baseline)
		})
	}
}

// TestPriorityBeatsFIFOUnderBurst pins the scheduling claim behind the
// cluster figure: on a bursty trace where a low-priority wave fills
// every slot ahead of short high-priority arrivals, FIFO head-blocks
// the shorties behind the whole wave while the priority policy admits
// them as soon as any slot frees. The high-priority p99 sojourn must be
// strictly better under the priority policy.
func TestPriorityBeatsFIFOUnderBurst(t *testing.T) {
	cl := topo.MultiNode3090(2)
	jobs := BurstyTrace(1, 8, 6)
	hi := func(j *JobResult) bool { return j.Spec.Priority > 0 }
	p99 := make(map[string]float64)
	for _, pol := range []Policy{FIFO{}, PriorityPolicy{}} {
		rep, err := Run(Config{Cluster: cl, Jobs: jobs, Policy: pol, SlotsPerGPU: 1, Oversub: 4})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		p99[pol.Name()] = rep.LatencySeries(hi).Percentile(99)
	}
	if p99["priority"] >= p99["fifo"] {
		t.Fatalf("high-priority p99 under priority policy (%v) not better than FIFO (%v)",
			time.Duration(p99["priority"]), time.Duration(p99["fifo"]))
	}
}

// TestPerJobTraceAttribution checks the flight-recorder integration:
// with a recorder installed, action spans and send-level byte
// accounting are tagged per tenant and agree with the fabric's own
// attribution.
func TestPerJobTraceAttribution(t *testing.T) {
	cl := topo.MultiNode3090(2)
	rec := &trace.Recorder{}
	jobs := []JobSpec{
		{ID: 1, Kind: "dp", Size: 2, Iterations: 2, Arrival: 0},
		{ID: 2, Kind: "zero", Size: 2, Iterations: 1, Arrival: 5 * sim.Microsecond},
	}
	rep, err := Run(Config{Cluster: cl, Jobs: jobs, Policy: BinPack{}, Oversub: 4, Recorder: rec})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byJob := map[int]int{} // the recorded send halves per job; 0 is untagged
	for _, s := range rec.Sends {
		byJob[s.Job] += s.Bytes
	}
	for _, id := range []int{1, 2} {
		if byJob[id] <= 0 {
			t.Errorf("recorder attributed no send bytes to job %d: %v", id, byJob)
		}
		if int64(byJob[id]) != rep.JobBytes[id] {
			t.Errorf("job %d: recorder says %d bytes, fabric says %d", id, byJob[id], rep.JobBytes[id])
		}
	}
	if byJob[0] != 0 {
		t.Errorf("untagged traffic %d bytes in a fully tagged run", byJob[0])
	}
	var tagged int
	for _, s := range rec.Actions {
		if s.Job == 1 || s.Job == 2 {
			tagged++
		}
	}
	if tagged == 0 {
		t.Error("no action spans carry a job tag")
	}
}

// TestPoolChurnAcrossTenants checks the communicator pool's isolation
// economics: two identical jobs that run one after another on the same
// ranks must NOT share pooled communicators across tenants (per-job
// isolation), while one job's own layers do reuse within the job.
func TestPoolChurnAcrossTenants(t *testing.T) {
	cl := topo.Server3090(2)
	jobs := []JobSpec{
		{ID: 1, Kind: "moe", Size: 2, Iterations: 2, Arrival: 0},
		{ID: 2, Kind: "moe", Size: 2, Iterations: 2, Arrival: sim.Microsecond},
	}
	rep, err := Run(Config{Cluster: cl, Jobs: jobs, Policy: FIFO{}, SlotsPerGPU: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.PoolReused == 0 {
		t.Error("MoE per-iteration dispatch groups never reused pooled communicators")
	}
	if rep.PoolCreated == 0 {
		t.Error("no communicators created")
	}
}

// TestLoadMatchesPlacements: checkLoad accepts a load that counts the
// running placements and panics by name on one that does not — a slot
// taken by no running job, or given back by the wrong one.
func TestLoadMatchesPlacements(t *testing.T) {
	d := &driver{load: []int{1, 0, 2}, held: make([]int, 3)}
	d.placed = []*jobState{{members: []int{0, 2}}, {members: []int{2}}}
	d.checkLoad()
	for _, load := range [][]int{{1, 1, 2}, {0, 0, 2}, {1, 0, 1}} {
		d.load = load
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "load-matches-placements") {
					t.Fatalf("load %v: recovered %v, want the load-matches-placements panic", load, r)
				}
			}()
			d.checkLoad()
		}()
	}
}
