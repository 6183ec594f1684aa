package core

import (
	"math/rand"
	"slices"
	"testing"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// group returns the system's group of collective id, or nil.
func (s *System) group(id int) *Group {
	if i, ok := s.groupAt(id); ok {
		return s.groups[i]
	}
	return nil
}

// TestIDTablesMatchModel drives seeded random sequences of Open
// (explicit and auto IDs), Close, KillRank, ReviveRank and Reform over
// 2-4 ranks. After every step each rank's tasks and the system's groups
// must be strictly ascending by ID and hold exactly the open handles
// and the groups they share: a killed rank's poller has released its
// registrations by then, and a failed Open leaves nothing behind.
func TestIDTablesMatchModel(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		e := sim.NewEngine()
		e.MaxTime = sim.Time(60 * sim.Second)
		sys := NewSystem(e, topo.Server3090(n), DefaultConfig())
		handles := make([][]*Collective, n) // the model: each rank's open handles
		check := func(step int, op string) {
			t.Helper()
			refs := map[int]int{}
			for rank, rc := range sys.ranks {
				if rc == nil {
					continue
				}
				var want []int
				for _, h := range handles[rank] {
					want = append(want, h.ID())
					refs[h.ID()]++
				}
				slices.Sort(want)
				got := make([]int, len(rc.tasks))
				for i, tk := range rc.tasks {
					got[i] = tk.ID()
					if i > 0 && got[i-1] >= got[i] {
						t.Fatalf("seed %d step %d (%s): rank %d tasks not strictly ascending: %v", seed, step, op, rank, got)
					}
					if tk.group != sys.group(tk.ID()) {
						t.Fatalf("seed %d step %d (%s): rank %d task %d is not on the system's group", seed, step, op, rank, tk.ID())
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d (%s): rank %d tasks %v, open handles %v", seed, step, op, rank, got, want)
				}
			}
			for i, g := range sys.groups {
				if i > 0 && sys.groups[i-1].ID >= g.ID {
					t.Fatalf("seed %d step %d (%s): groups not strictly ascending at %d", seed, step, op, g.ID)
				}
				if g.refs != refs[g.ID] {
					t.Fatalf("seed %d step %d (%s): group %d has %d refs, %d open handles", seed, step, op, g.ID, g.refs, refs[g.ID])
				}
			}
			if len(sys.groups) != len(refs) {
				t.Fatalf("seed %d step %d (%s): %d groups, %d collectives open", seed, step, op, len(sys.groups), len(refs))
			}
		}
		e.Spawn("ops", func(p *sim.Process) {
			for step := 0; step < 80; step++ {
				rank := rng.Intn(n)
				var op string
				switch k := rng.Intn(10); {
				case k < 4:
					op = "open"
					rc := sys.Init(p, rank)
					ranks := []int{rank}
					for r := 0; r < n; r++ {
						if r != rank && rng.Intn(2) == 0 {
							ranks = append(ranks, r)
						}
					}
					slices.Sort(ranks)
					var opts []OpenOption
					if rng.Intn(2) == 0 {
						opts = append(opts, WithCollID(rng.Intn(12)))
					}
					if h, err := rc.Open(lifecycleSpec(16, ranks), opts...); err == nil {
						handles[rank] = append(handles[rank], h)
					}
				case k < 6:
					op = "close"
					if hs := handles[rank]; len(hs) > 0 {
						i := rng.Intn(len(hs))
						if err := hs[i].Close(p); err != nil {
							t.Errorf("seed %d step %d: close: %v", seed, step, err)
						}
						handles[rank] = slices.Delete(hs, i, i+1)
					}
				case k < 7:
					op = "kill"
					if sys.KillRank(rank) {
						handles[rank] = nil
					}
				case k < 8:
					op = "revive"
					_ = sys.ReviveRank(rank) // refused for a live rank
				default:
					op = "reform"
					hs := handles[rank]
					if len(hs) == 0 {
						break
					}
					i := rng.Intn(len(hs))
					nh, err := hs[i].Reform(p)
					if hs[i].Closed() {
						handles[rank] = slices.Delete(hs, i, i+1)
					}
					if err == nil {
						handles[rank] = append(handles[rank], nh)
					}
				}
				p.Sleep(sim.Millisecond) // a killed rank's poller releases its registrations
				check(step, op)
			}
			for rank, rc := range sys.ranks {
				if rc != nil && !rc.lost {
					for _, h := range handles[rank] {
						if err := h.Close(p); err != nil {
							t.Errorf("seed %d: final close: %v", seed, err)
						}
					}
					rc.Destroy(p)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if len(sys.groups) != 0 {
			t.Errorf("seed %d: %d groups left after every handle closed", seed, len(sys.groups))
		}
	}
}

// evictOldestRef is the eviction rule as it was written over an
// unordered table: the lowest-ID resident task other than incoming that
// shares its slot, else the lowest-ID resident one, once the other
// resident tasks fill every slot; nil when none is evicted.
func evictOldestRef(tasks []*collTask, incoming *collTask) *collTask {
	resident := 0
	for _, t := range tasks {
		if t.resident && t != incoming {
			resident++
		}
	}
	if resident < ActiveContextSlots {
		return nil
	}
	slot := incoming.ID() % ActiveContextSlots
	var fallback, conflict *collTask
	for _, t := range tasks {
		if !t.resident || t == incoming {
			continue
		}
		if t.ID()%ActiveContextSlots == slot && (conflict == nil || t.ID() < conflict.ID()) {
			conflict = t
		}
		if fallback == nil || t.ID() < fallback.ID() {
			fallback = t
		}
	}
	if conflict != nil {
		return conflict
	}
	return fallback
}

// TestEvictOldestMatchesReference holds the one-scan eviction over the
// ID-ordered table to the two-candidate rule it replaced, over random
// residency sets and IDs, with the incoming task registered or not.
func TestEvictOldestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		ids := rng.Perm(24)[:1+rng.Intn(8)]
		slices.Sort(ids)
		r := &RankContext{}
		for _, id := range ids {
			r.tasks = append(r.tasks, &collTask{group: &Group{ID: id}, resident: rng.Intn(3) > 0})
		}
		incoming := &collTask{group: &Group{ID: 24 + rng.Intn(8)}}
		if rng.Intn(2) == 0 {
			incoming = r.tasks[rng.Intn(len(r.tasks))]
			incoming.resident = false
		}
		shuffled := slices.Clone(r.tasks)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		want := evictOldestRef(shuffled, incoming)
		before := make([]bool, len(r.tasks))
		for i, tk := range r.tasks {
			before[i] = tk.resident
		}
		r.evictOldest(incoming)
		for i, tk := range r.tasks {
			if evicted := before[i] && !tk.resident; evicted != (tk == want) || tk.resident != (before[i] && tk != want) {
				t.Fatalf("trial %d: ids %v resident %v incoming %d: task %d evicted %v, reference evicts %v",
					trial, ids, before, incoming.ID(), tk.ID(), evicted, want != nil && want.ID() == tk.ID())
			}
		}
	}
}
