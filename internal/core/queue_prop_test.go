package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dfccl/internal/sim"
)

// Property: for any sequence of pushes, every CQ variant drains
// exactly the pushed IDs in push order.
func TestCQDrainMatchesPushProperty(t *testing.T) {
	f := func(idsRaw []uint8, variantRaw uint8, slotsRaw uint8) bool {
		variant := CQVariant(int(variantRaw) % 3)
		slots := int(slotsRaw)%31 + 1
		q := NewCQ(variant, slots)
		var pushed, drained []int
		for _, raw := range idsRaw {
			id := int(raw)
			if !q.Push(id) {
				// Full: drain everything, verify, continue.
				drained = append(drained, q.Drain()...)
				if !q.Push(id) {
					return false // drained queue must accept a push
				}
			}
			pushed = append(pushed, id)
		}
		drained = append(drained, q.Drain()...)
		if len(drained) != len(pushed) {
			return false
		}
		for i := range pushed {
			if drained[i] != pushed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the SQ delivers every SQE exactly once, in order, under
// interleaved produce/consume with a capacity-bounded ring, including
// bounds its backlog grows the ring to.
func TestSQFIFOProperty(t *testing.T) {
	f := func(idsRaw []uint8, capRaw uint8) bool {
		capSlots := int(capRaw)%(3*sqInitialSlots) + 1
		e := sim.NewEngine()
		q := NewSQ("prop", capSlots)
		n := len(idsRaw)
		var got []int
		e.Spawn("producer", func(p *sim.Process) {
			for _, raw := range idsRaw {
				q.Push(p, SQE{CollID: int(raw)})
			}
		})
		e.Spawn("consumer", func(p *sim.Process) {
			for len(got) < n {
				sqe, ok := q.TryPop(p.Engine())
				if !ok {
					if q.inserted.WaitTimeout(p, 10*sim.Microsecond) && q.Len() == 0 && len(got) < n {
						// Producer may be blocked on a full ring that we
						// just drained; keep polling.
					}
					continue
				}
				got = append(got, sqe.CollID)
				p.Sleep(100 * sim.Nanosecond)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i, raw := range idsRaw {
			if got[i] != int(raw) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: an SQ whose backlog grows its ring through several doublings
// behaves as a bounded FIFO slice. A producer pushes seeded IDs while a
// consumer pops seeded bursts at seeded instants; the popped IDs, Len and
// Submitted match a reference slice after every operation, the ring's
// array never exceeds the bound, and Push blocks exactly when the SQ
// holds its bound: a push finds room and takes SQEWriteTime, or finds it
// full and returns only after a pop.
func TestSQGrowthMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bound := 1 + rng.Intn(6*sqInitialSlots) // up to three doublings
		pushes := 4*bound + rng.Intn(64)
		e := sim.NewEngine()
		q := NewSQ("prop", bound)
		if len(q.slots) != min(bound, sqInitialSlots) {
			t.Fatalf("seed %d: bound %d starts with %d slots, want %d", seed, bound, len(q.slots), min(bound, sqInitialSlots))
		}
		var ref []int // pending IDs, oldest first
		pops, blocked, grown := 0, 0, len(q.slots)
		// The processes report with Errorf and stop at the first failure.
		check := func(at string) bool {
			if q.Len() != len(ref) || q.Submitted != pops+len(ref) || len(q.slots) > bound {
				t.Errorf("seed %d, bound %d, %s: Len %d, Submitted %d, %d slots; reference holds %d after %d pops",
					seed, bound, at, q.Len(), q.Submitted, len(q.slots), len(ref), pops)
				return false
			}
			grown = max(grown, len(q.slots))
			return true
		}
		e.Spawn("producer", func(p *sim.Process) {
			for i := 0; i < pushes && !t.Failed(); i++ {
				id := rng.Intn(1 << 20)
				full, popsBefore, t0 := q.Len() == bound, pops, p.Now()
				q.Push(p, SQE{CollID: id})
				ref = append(ref, id)
				if !check("push") {
					return
				}
				took := p.Now().Sub(t0)
				switch {
				case !full && took != SQEWriteTime:
					t.Errorf("seed %d, bound %d: push %d found room but took %v", seed, bound, i, took)
				case full && pops == popsBefore:
					t.Errorf("seed %d, bound %d: push %d found the SQ full and returned before a pop", seed, bound, i)
				case full:
					blocked++
				}
				if rng.Intn(4) == 0 {
					p.Sleep(sim.Duration(rng.Intn(8)) * SQEWriteTime)
				}
			}
		})
		e.Spawn("consumer", func(p *sim.Process) {
			for pops < pushes && !t.Failed() {
				p.Sleep(sim.Duration(1+rng.Intn(3*bound)) * SQEWriteTime)
				for burst := 1 + rng.Intn(bound); burst > 0; burst-- {
					if q.writable.Waiters() > 0 && len(ref) != bound {
						t.Errorf("seed %d: the producer waits with %d of %d slots taken", seed, len(ref), bound)
						return
					}
					sqe, ok := q.TryPop(p.Engine())
					if !ok {
						if len(ref) != 0 {
							t.Errorf("seed %d: TryPop found nothing with %d pending", seed, len(ref))
							return
						}
						break
					}
					if sqe.CollID != ref[0] {
						t.Errorf("seed %d: popped %d, want %d", seed, sqe.CollID, ref[0])
						return
					}
					ref = ref[1:]
					pops++
					if !check("pop") {
						return
					}
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if t.Failed() {
			return
		}
		if pops != pushes || blocked == 0 || grown != bound {
			t.Fatalf("seed %d, bound %d: %d of %d pushes popped, %d blocked, ring grew to %d slots; want all, some, the bound",
				seed, bound, pops, pushes, blocked, grown)
		}
	}
}
