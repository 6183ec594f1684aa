package chaos

import (
	"math/rand"
	"testing"

	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// FuzzChaos holds Run to its contract on hostile configs: it never
// panics, an invalid config ends in an error with Hang false before the
// engine starts, and a valid one ends Ok or with the schedule having
// killed every rank. The inputs span the workload kind (an unknown one
// included), the algorithm (unknown values included), 1–2 nodes × 1–4
// GPUs or no cluster at all, a seeded rank subset in seeded order
// followed by raw extra ranks (out-of-range and duplicate entries
// allowed), 1–3 iterations, and up to three kill/revive events at
// 0–1.5 ms. The committed corpus is testdata/fuzz/FuzzChaos; run the
// fuzzer with
//
//	go test -run '^$' -fuzz FuzzChaos -fuzztime 10s ./internal/chaos
func FuzzChaos(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, algo int8, noCluster bool, nodes, gpus uint8, perm int64, n uint8, extra []byte, iters uint8, events []byte) {
		machines, perNode := 1+int(nodes%2), 1+int(gpus%4)
		total := machines * perNode
		ranks := rand.New(rand.NewSource(perm)).Perm(total)[:int(n)%(total+1)]
		for _, b := range extra[:min(len(extra), 8)] {
			ranks = append(ranks, int(int8(b)))
		}
		cfg := Config{
			Workload:   []string{"dp", "moe", "zero", "hybrid", "pipeline"}[kind%5],
			Algo:       prim.Algorithm(algo % 4),
			Ranks:      ranks,
			Iterations: 1 + int(iters%3),
		}
		if !noCluster {
			cfg.Cluster = topo.NewCluster(machines, perNode, topo.RTX3090, topo.DefaultLinks)
		}
		for i := 0; i+2 < len(events) && i < 9; i += 3 {
			cfg.Schedule = append(cfg.Schedule, Event{
				At:   sim.Duration(int64(1500*sim.Microsecond) * int64(events[i]) / 255),
				Kind: EventKind(events[i+1] % 2),
				Rank: int(events[i+2]) % total,
			})
		}

		rep, err := Run(cfg)
		valid := cfg.Cluster != nil && cfg.Workload != "pipeline" &&
			cfg.Algo >= prim.AlgoRing && cfg.Algo <= prim.AlgoAuto && len(ranks) > 0
		seen := map[int]bool{}
		for _, r := range ranks {
			valid = valid && r >= 0 && r < total && !seen[r]
			seen[r] = true
		}
		switch {
		case rep.Hang:
			t.Fatalf("%+v: hang: %s", cfg, rep.Err)
		case !valid && (err == nil || rep.Attempts > 0):
			t.Fatalf("%+v: invalid config accepted: attempts %d, err %v", cfg, rep.Attempts, err)
		case valid && err != nil && rep.Err != "chaos: schedule killed every rank":
			t.Fatalf("%+v: %v", cfg, err)
		}
	})
}
