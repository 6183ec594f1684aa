package core

import (
	"math/rand"
	"testing"

	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
)

// TestTimelineFingerprint pins the engine's dispatch order on the two
// core benchmark shapes. The golden values were recorded on the
// channel-handoff engine (the parent of the coroutine switch): any
// change to sim that reorders, adds or drops one dispatched event moves
// them.
func TestTimelineFingerprint(t *testing.T) {
	const n = 8
	spec := func(count int) prim.Spec {
		return prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(n)}
	}
	// One small all-reduce relaunched 20 times in lock-step.
	ordered := func(p *sim.Process, r *RankContext) {
		coll, err := r.Open(spec(1024), WithCollID(1))
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		s := mem.NewBuffer(mem.Float32, 1024)
		d := mem.NewBuffer(mem.Float32, 1024)
		for it := 0; it < 20; it++ {
			if err := coll.LaunchCB(p, s, d, nil); err != nil {
				t.Errorf("launch: %v", err)
				return
			}
			r.WaitAll(p)
		}
	}
	// Sec. 6.1 program 1 at seed 1: eight all-reduces, every rank
	// launching them in its own random order.
	rng := rand.New(rand.NewSource(1))
	orders := make([][]int, n)
	for i := range orders {
		orders[i] = rng.Perm(8)
	}
	var preempts int
	disorder := func(p *sim.Process, r *RankContext) {
		var colls [8]*Collective
		var send, recv [8]*mem.Buffer
		for c := range colls {
			var err error
			if colls[c], err = r.Open(spec(64<<c), WithCollID(c)); err != nil {
				t.Errorf("open: %v", err)
				return
			}
			send[c] = mem.NewBuffer(mem.Float32, 64<<c)
			recv[c] = mem.NewBuffer(mem.Float32, 64<<c)
		}
		for it := 0; it < 3; it++ {
			for _, c := range orders[r.Rank] {
				if err := colls[c].LaunchCB(p, send[c], recv[c], nil); err != nil {
					t.Errorf("launch: %v", err)
					return
				}
			}
			r.WaitAll(p)
		}
		preempts += r.Stats.Preemptions
	}
	for _, tc := range []struct {
		name string
		body func(*sim.Process, *RankContext)
		want uint64
	}{
		{"ordered", ordered, 0xc1eaea613ad2a76a},
		{"disorder", disorder, 0xfe5c5478a0e9b863},
	} {
		for run := 0; run < 2; run++ {
			sys := newSys(n, DefaultConfig())
			runApp(t, sys, n, tc.body)
			if got := sys.Engine.Fingerprint(); got != tc.want {
				t.Errorf("%s run %d: fingerprint %#x, want %#x", tc.name, run, got, tc.want)
			}
		}
	}
	if preempts == 0 {
		t.Error("the disorder program exercised no preemption")
	}
}
