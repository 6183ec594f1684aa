package core

import (
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
// interleaved produce/consume with a capacity-bounded ring.
func TestSQFIFOProperty(t *testing.T) {
	f := func(idsRaw []uint8, capRaw uint8) bool {
		capSlots := int(capRaw)%15 + 1
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
					if q.Inserted().WaitTimeout(p, 10*sim.Microsecond) && q.Len() == 0 && len(got) < n {
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
