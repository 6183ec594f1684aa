package deadlocksim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dfccl/internal/mem"
	"dfccl/internal/ncclsim"
	"dfccl/internal/orch"
	"dfccl/internal/prim"
	vt "dfccl/internal/sim"
	"dfccl/internal/topo"
)

// The decision models are held to the NCCL baseline on cudasim, which
// implements the semantics they abstract: a simulated round's per-GPU
// launch orders, replayed there, must reach the same deadlock verdict.
//
//   - Single-queue (Fig. 1(c)): orch.NewNCCLSingleStream puts every
//     launch of a GPU on its one stream, so a kernel waiting for its
//     peers holds back all later ones. The sync marks are that stream's
//     own order and are not replayed.
//   - Synchronization (Fig. 1(d)): ncclsim with a stream per launch and
//     one block per kernel, so resources never bind, and a
//     Device.Synchronize at each sync mark.

// ncclDeadlocks replays the round s last played on the NCCL baseline,
// as timing-only all-reduces over the collectives' groups, and reports
// whether the engine ended in a global deadlock.
func ncclDeadlocks(tb testing.TB, s *sim) bool {
	tb.Helper()
	e := vt.NewEngine()
	cl := topo.Server3090(s.cfg.NumGPUs)
	spec := func(c int32) prim.Spec {
		ranks := make([]int, len(s.members[c]))
		for i, m := range s.members[c] {
			ranks[i] = int(m)
		}
		return prim.Spec{Kind: prim.AllReduce, Count: 64, Type: mem.Float32, Op: mem.Sum, Ranks: ranks, TimingOnly: true}
	}
	var host func(p *vt.Process, g int) error
	if s.cfg.Model == SingleQueue {
		b := orch.NewNCCLSingleStream(e, cl)
		host = func(p *vt.Process, g int) error {
			for _, c := range s.canonical[g] {
				if err := b.Register(p, g, int(c), spec(c), 0, nil, nil); err != nil {
					return err
				}
			}
			for _, c := range s.seqs[g] {
				if c == syncMark {
					continue
				}
				if err := b.Launch(p, g, int(c)); err != nil {
					return err
				}
			}
			return nil
		}
	} else {
		lib := ncclsim.New(e, cl)
		comms := make([]*ncclsim.Comm, s.numColls)
		for c := range comms {
			comms[c] = lib.NewComm(spec(int32(c)).Ranks)
			comms[c].Channels = 1
		}
		none := mem.NewBuffer(mem.Float32, 0)
		host = func(p *vt.Process, g int) error {
			dev := lib.Device(g)
			if len(s.canonical[g]) > dev.MaxResidentBlocks {
				return fmt.Errorf("%d launches could run out of the device's %d blocks", len(s.canonical[g]), dev.MaxResidentBlocks)
			}
			for _, c := range s.seqs[g] {
				if c == syncMark {
					dev.Synchronize(p)
					continue
				}
				comms[c].Launch(p, dev.NewStream(), g, spec(c), none, none)
			}
			return nil
		}
	}
	for g := range s.cfg.NumGPUs {
		e.Spawn(fmt.Sprintf("host%d", g), func(p *vt.Process) {
			if err := host(p, g); err != nil {
				tb.Errorf("gpu %d: %v", g, err)
			}
		})
	}
	err := e.Run()
	if err != nil && !errors.Is(err, vt.ErrDeadlock) {
		tb.Fatalf("NCCL replay: %v", err)
	}
	return err != nil
}

// checkRound compares the verdict of the round s just played with the
// NCCL baseline's.
func checkRound(tb testing.TB, s *sim, deadlocked bool) {
	tb.Helper()
	if nccl := ncclDeadlocks(tb, s); nccl != deadlocked {
		tb.Fatalf("%v: fixpoint deadlocked=%v, NCCL deadlocked=%v; launch orders %v", s.cfg.Model, deadlocked, nccl, s.seqs)
	}
}

// TestDecisionModelsAgreeWithNCCL replays seeded rounds of 6-GPU
// free-grouping configurations (four pairs and a triple, two
// collectives each) on the NCCL baseline until each model has reached
// both verdicts at least 50 times.
func TestDecisionModelsAgreeWithNCCL(t *testing.T) {
	for _, m := range []struct {
		model     Model
		dis, sync float64
	}{{SingleQueue, 0.06, 0}, {Synchronization, 0.3, 0.4}} {
		var verdicts [2]int // clean, deadlocked
		for seed := int64(1); verdicts[0] < 50 || verdicts[1] < 50; seed++ {
			if seed > 100 {
				t.Fatalf("%v: %d clean and %d deadlocked rounds after 100 configs", m.model, verdicts[0], verdicts[1])
			}
			groups, colls := FreeGrouping(4, 2, 1, 3, 6, 2, 2, seed)
			s := newSim(Config{
				Model: m.model, Groups: groups, CollsPerGroup: colls, NumGPUs: 6,
				DisorderProb: m.dis, SyncProb: m.sync, Rounds: 1, Seed: seed,
			})
			for range 4 {
				deadlocked := s.roundDeadlocks()
				if s.skippedLast {
					continue
				}
				checkRound(t, s, deadlocked)
				if deadlocked {
					verdicts[1]++
				} else {
					verdicts[0]++
				}
			}
		}
		t.Logf("%v: %d clean, %d deadlocked rounds agree", m.model, verdicts[0], verdicts[1])
	}
}

// TestValidateRejectsUnplayableGroups: a negative collective count used
// to panic in Run, and a GPU listed twice in one group made a collective
// that can never reach its member count.
func TestValidateRejectsUnplayableGroups(t *testing.T) {
	for _, cfg := range []Config{
		twoGPUConfig(SingleQueue, -1, 0.1, 0, 10, 1),
		{Model: SingleQueue, Groups: [][]int{{0, 1, 1}}, CollsPerGroup: []int{50}, NumGPUs: 2, DisorderProb: 0.2, Rounds: 50, Seed: 1},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("groups %v with counts %v: no error", cfg.Groups, cfg.CollsPerGroup)
		}
	}
}

// FuzzDecisionModels: a hostile configuration — members out of range or
// listed twice, negative collective counts, probabilities outside [0,1]
// or NaN, no GPUs or no groups — is refused with an error, never a
// panic; a valid one's first simulated round reaches the NCCL
// baseline's verdict. The input's members bytes are GPU indices in -1..7, a set
// high bit closing the group; groups alternate between the two counts.
func FuzzDecisionModels(f *testing.F) {
	f.Add(uint8(6), false, []byte{1, 2, 3 | 0x80, 3, 4, 5 | 0x80, 5, 6, 1 | 0x80}, int8(4), int8(6), 0.1, 0.0, int64(1))
	f.Add(uint8(6), true, []byte{1, 2, 3 | 0x80, 3, 4, 5 | 0x80, 5, 6, 1 | 0x80}, int8(4), int8(6), 0.1, 0.1, int64(2))
	f.Add(uint8(3), true, []byte{1, 2 | 0x80, 3, 1 | 0x80, 2}, int8(5), int8(2), 0.2, 0.2, int64(3))
	f.Add(uint8(2), false, []byte{1, 2}, int8(-1), int8(0), 0.1, 0.0, int64(4))      // negative count
	f.Add(uint8(2), false, []byte{1, 2, 2}, int8(8), int8(0), 0.2, 0.0, int64(5))    // GPU 1 twice
	f.Add(uint8(0), false, []byte{1}, int8(2), int8(2), 0.1, 0.0, int64(6))          // no GPUs
	f.Add(uint8(4), true, []byte{0}, int8(2), int8(2), 0.1, 0.1, int64(7))           // member -1
	f.Add(uint8(4), true, []byte{1, 2}, int8(2), int8(2), math.NaN(), 0.1, int64(8)) // NaN
	f.Add(uint8(4), true, []byte{1, 2}, int8(2), int8(2), 0.1, 1.5, int64(9))        // above 1
	f.Add(uint8(5), false, []byte{}, int8(2), int8(2), 0.1, 0.1, int64(10))          // no groups
	f.Fuzz(func(t *testing.T, gpus uint8, sync bool, members []byte, collsA, collsB int8, dis, syncProb float64, seed int64) {
		cfg := Config{NumGPUs: int(gpus % 7), DisorderProb: dis, SyncProb: syncProb, Rounds: 3, Seed: seed}
		if sync {
			cfg.Model = Synchronization
		}
		hostile := !(dis >= 0 && dis <= 1 && syncProb >= 0 && syncProb <= 1)
		var group []int
		for i, b := range members {
			gpu := int(b&0x7f)%9 - 1
			hostile = hostile || gpu < 0 || gpu >= cfg.NumGPUs
			for _, m := range group {
				hostile = hostile || m == gpu
			}
			group = append(group, gpu)
			if b&0x80 != 0 || i == len(members)-1 {
				n := int([]int8{collsA, collsB}[len(cfg.Groups)%2] % 9)
				hostile = hostile || n < 0
				cfg.Groups = append(cfg.Groups, group)
				cfg.CollsPerGroup = append(cfg.CollsPerGroup, n)
				group = nil
				if len(cfg.Groups) == 8 {
					break
				}
			}
		}
		hostile = hostile || len(cfg.Groups) == 0
		if _, err := Run(cfg); (err != nil) != hostile {
			t.Fatalf("config %+v: hostile=%v but Run returned %v", cfg, hostile, err)
		}
		if hostile {
			return
		}
		s := newSim(cfg)
		for range cfg.Rounds {
			if deadlocked := s.roundDeadlocks(); !s.skippedLast {
				checkRound(t, s, deadlocked)
				return
			}
		}
	})
}
