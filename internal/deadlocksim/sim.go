package deadlocksim

import (
	"math/rand"
	"sort"
)

// syncMark marks a synchronization event in a GPU's event sequence.
const syncMark = -1

// sim holds per-configuration immutable state plus per-round buffers,
// so 32,000 rounds allocate almost nothing.
type sim struct {
	cfg Config
	rng *rand.Rand

	// Canonical structure, fixed across rounds.
	numColls int
	members  [][]int32 // coll -> member GPUs
	// canonical[g] is GPU g's subsequence of the global total order of
	// all collectives (restricted to the groups g belongs to).
	canonical [][]int32
	totalEvts int

	// Per-round buffers.
	seqs        [][]int32 // with disorder applied and syncs inserted
	execCount   []int32
	success     []bool
	head        []int32
	suspended   []bool
	barrierRem  []int32
	skippedLast bool
	notDone     []int32   // per GPU: invoked-but-unsuccessful colls
	execOn      [][]int32 // coll -> member GPUs that executed it (round)
}

func newSim(cfg Config) *sim {
	s := &sim{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	// Assign global collective IDs group by group, then walk a global
	// total order that interleaves the groups round-robin, appending
	// each collective to its members' canonical sequences — every GPU
	// that follows its subsequence of this order is "consistent".
	first := make([]int32, len(cfg.CollsPerGroup))
	most := 0
	for gi, n := range cfg.CollsPerGroup {
		first[gi] = int32(s.numColls)
		m := toInt32(cfg.Groups[gi])
		for range n {
			s.members = append(s.members, m)
		}
		s.numColls += n
		most = max(most, n)
	}
	s.canonical = make([][]int32, cfg.NumGPUs)
	for pos := range most {
		for gi, n := range cfg.CollsPerGroup {
			if pos < n {
				for _, g := range cfg.Groups[gi] {
					s.canonical[g] = append(s.canonical[g], first[gi]+int32(pos))
				}
			}
		}
	}
	for _, seq := range s.canonical {
		s.totalEvts += len(seq)
	}
	s.seqs = make([][]int32, cfg.NumGPUs)
	s.execCount = make([]int32, s.numColls)
	s.success = make([]bool, s.numColls)
	s.head = make([]int32, cfg.NumGPUs)
	s.suspended = make([]bool, cfg.NumGPUs)
	s.barrierRem = make([]int32, cfg.NumGPUs)
	s.notDone = make([]int32, cfg.NumGPUs)
	s.execOn = make([][]int32, s.numColls)
	return s
}

func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// Run simulates all configured rounds.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	s := newSim(cfg)
	res := Result{Config: cfg, Rounds: cfg.Rounds}
	for round := 0; round < cfg.Rounds; round++ {
		if s.roundDeadlocks() {
			res.Deadlocks++
		} else if s.skippedLast {
			res.SkippedClean++
		}
	}
	return res, nil
}

// roundDeadlocks plays one round and reports whether it deadlocked.
func (s *sim) roundDeadlocks() bool {
	// Sample the perturbation counts first. A round with no disorder
	// keeps every GPU on the same global total order, which cannot
	// produce circular collective dependency (disorder is a necessary
	// condition, Sec. 2.3); in the sync model a round additionally
	// needs at least one synchronization to block anything.
	disorders := binomial(s.rng, s.totalEvts, s.cfg.DisorderProb)
	syncs := 0
	if s.cfg.Model == Synchronization {
		syncs = binomial(s.rng, s.totalEvts, s.cfg.SyncProb)
	}
	if disorders == 0 || (s.cfg.Model == Synchronization && syncs == 0) {
		// Consume no further randomness; provably clean.
		s.skippedLast = true
		return false
	}
	s.skippedLast = false
	s.buildRoundSequences(disorders, syncs)
	return s.play()
}

// buildRoundSequences materializes the per-GPU event sequences for a
// round: canonical subsequences, k disorder swaps at random positions,
// then m sync insertions at random positions (sync model) or a sync
// after every collective (single-queue model, which draws nothing for
// them).
func (s *sim) buildRoundSequences(disorders, syncs int) {
	// Reset buffers.
	for i := range s.execCount {
		s.execCount[i] = 0
		s.success[i] = false
		s.execOn[i] = s.execOn[i][:0]
	}
	for g := range s.seqs {
		s.seqs[g] = append(s.seqs[g][:0], s.canonical[g]...)
		s.head[g] = 0
		s.suspended[g] = false
		s.barrierRem[g] = 0
		s.notDone[g] = 0
	}
	// Disorder: displace a random event to a random later position on
	// a randomly chosen GPU (weighted by sequence length via global
	// event index).
	for k := 0; k < disorders; k++ {
		g, i := s.randomEvent()
		seq := s.seqs[g]
		if len(seq) < 2 {
			continue
		}
		j := i + 1 + s.rng.Intn(len(seq)-i)
		if j >= len(seq) {
			j = len(seq) - 1
		}
		seq[i], seq[j] = seq[j], seq[i]
	}
	if s.cfg.Model == SingleQueue {
		// A single-queue GPU cannot go on until its running collective
		// succeeds: a sync right after each one.
		for g, seq := range s.seqs {
			n := len(seq)
			seq = append(seq, seq...)
			for i := n - 1; i >= 0; i-- {
				seq[2*i], seq[2*i+1] = seq[i], syncMark
			}
			s.seqs[g] = seq
		}
		return
	}
	// Syncs: insert after random events.
	type ins struct{ g, pos int }
	places := make([]ins, 0, syncs)
	for k := 0; k < syncs; k++ {
		g, i := s.randomEvent()
		places = append(places, ins{g, i})
	}
	sort.Slice(places, func(a, b int) bool {
		if places[a].g != places[b].g {
			return places[a].g < places[b].g
		}
		return places[a].pos > places[b].pos // insert back-to-front
	})
	for _, pl := range places {
		seq := s.seqs[pl.g]
		seq = append(seq, 0)
		copy(seq[pl.pos+2:], seq[pl.pos+1:])
		seq[pl.pos+1] = syncMark
		s.seqs[pl.g] = seq
	}
}

// randomEvent picks a uniformly random (gpu, position) among all
// canonical events.
func (s *sim) randomEvent() (gpu, pos int) {
	n := s.rng.Intn(s.totalEvts)
	for g := range s.canonical {
		if n < len(s.canonical[g]) {
			return g, n
		}
		n -= len(s.canonical[g])
	}
	panic("deadlocksim: event index out of range")
}

// play runs a round to fixpoint and reports whether it stalled: GPUs
// execute every collective immediately on invocation (infinite
// resources) unless suspended by a sync event, which blocks the GPU
// until all its executing-but-unsuccessful collectives succeed.
func (s *sim) play() bool {
	work := make([]int32, 0, s.cfg.NumGPUs)
	inWork := make([]bool, s.cfg.NumGPUs)
	for g := 0; g < s.cfg.NumGPUs; g++ {
		work = append(work, int32(g))
		inWork[g] = true
	}
	remaining := 0
	for g := range s.seqs {
		remaining += len(s.seqs[g])
	}
	for len(work) > 0 {
		g := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[g] = false
		if s.suspended[g] {
			if s.barrierRem[g] > 0 {
				continue
			}
			s.suspended[g] = false
			s.head[g]++ // move past the sync event
			remaining--
		}
		for int(s.head[g]) < len(s.seqs[g]) {
			c := s.seqs[g][s.head[g]]
			if c == syncMark {
				if s.notDone[g] > 0 {
					s.suspended[g] = true
					s.barrierRem[g] = s.notDone[g]
					break
				}
				s.head[g]++
				remaining--
				continue
			}
			// Invoke and immediately execute.
			s.head[g]++
			remaining--
			if s.success[c] {
				continue
			}
			s.execCount[c]++
			s.execOn[c] = append(s.execOn[c], g)
			s.notDone[g]++
			if int(s.execCount[c]) == len(s.members[c]) {
				s.complete(c, inWork, &work)
			}
		}
	}
	return remaining > 0
}

// complete marks c successful and credits every member's barrier and
// not-done accounting, waking suspended members whose barriers empty.
func (s *sim) complete(c int32, inWork []bool, work *[]int32) {
	s.success[c] = true
	for _, g := range s.execOn[c] {
		s.notDone[g]--
		if s.suspended[g] {
			s.barrierRem[g]--
			if s.barrierRem[g] == 0 && !inWork[g] {
				*work = append(*work, g)
				inWork[g] = true
			}
		}
	}
}
