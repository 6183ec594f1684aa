package deadlocksim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoGPUConfig is the minimal Fig. 1 scenario: one group, two GPUs.
func twoGPUConfig(model Model, colls int, dis, sync float64, rounds int, seed int64) Config {
	return Config{
		Name: "mini", Model: model,
		Groups:        [][]int{{0, 1}},
		CollsPerGroup: []int{colls},
		NumGPUs:       2,
		DisorderProb:  dis, SyncProb: sync,
		Rounds: rounds, Seed: seed,
	}
}

func TestZeroDisorderNeverDeadlocks(t *testing.T) {
	for _, model := range []Model{SingleQueue, Synchronization} {
		cfg := twoGPUConfig(model, 100, 0, 0.1, 2000, 3)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if res.Deadlocks != 0 {
			t.Fatalf("%v: %d deadlocks with zero disorder", model, res.Deadlocks)
		}
	}
}

func TestSingleQueueCertainDisorderDeadlocks(t *testing.T) {
	// With high disorder on a shared group, nearly every round should
	// deadlock under the single-queue model.
	cfg := twoGPUConfig(SingleQueue, 50, 0.2, 0, 500, 11)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio() < 0.5 {
		t.Fatalf("ratio = %v, want most rounds deadlocked", res.Ratio())
	}
}

func TestSyncModelNeedsBothFactors(t *testing.T) {
	// Disorder without synchronization cannot deadlock under infinite
	// resources; synchronization without disorder cannot either.
	noSync := twoGPUConfig(Synchronization, 100, 0.05, 0, 1000, 5)
	res, err := Run(noSync)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocks != 0 {
		t.Fatalf("disorder-only sync-model rounds deadlocked: %d", res.Deadlocks)
	}
	noDis := twoGPUConfig(Synchronization, 100, 0, 0.05, 1000, 5)
	res, err = Run(noDis)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocks != 0 {
		t.Fatalf("sync-only rounds deadlocked: %d", res.Deadlocks)
	}
}

func TestSyncModelBothFactorsDeadlock(t *testing.T) {
	cfg := twoGPUConfig(Synchronization, 200, 0.05, 0.05, 500, 8)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocks == 0 {
		t.Fatal("high disorder+sync produced no deadlocks")
	}
}

func TestDeadlockRatioIncreasesWithDisorder(t *testing.T) {
	ratio := func(p float64) float64 {
		res, err := Run(twoGPUConfig(SingleQueue, 100, p, 0, 4000, 21))
		if err != nil {
			t.Fatal(err)
		}
		return res.Ratio()
	}
	lo, hi := ratio(1e-4), ratio(1e-3)
	if hi <= lo {
		t.Fatalf("ratio(1e-3)=%v not above ratio(1e-4)=%v", hi, lo)
	}
}

func TestDeadlockRatioIncreasesWithSyncProb(t *testing.T) {
	groups, colls := FreeGrouping(8, 3, 2, 6, 16, 100, 300, 7)
	ratio := func(q float64) float64 {
		cfg := Config{
			Name: "x", Model: Synchronization,
			Groups: groups, CollsPerGroup: colls, NumGPUs: 16,
			DisorderProb: 2e-4, SyncProb: q, Rounds: 3000, Seed: 13,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Ratio()
	}
	lo, hi := ratio(2e-4), ratio(2e-3)
	if hi <= lo {
		t.Fatalf("ratio(sync=2e-3)=%v not above ratio(sync=2e-4)=%v", hi, lo)
	}
}

func TestThreeDGroupShape(t *testing.T) {
	groups, colls, n := ThreeD(4, 4, 4, 400, 1200)
	if n != 64 {
		t.Fatalf("gpus = %d, want 64", n)
	}
	if len(groups) != 32 {
		t.Fatalf("groups = %d, want 32 (16 TP + 16 DP)", len(groups))
	}
	tp, dp := 0, 0
	for i, g := range groups {
		switch colls[i] {
		case 400:
			tp++
			if len(g) != 4 {
				t.Fatalf("TP group size %d, want 4", len(g))
			}
		case 1200:
			dp++
			if len(g) != 4 {
				t.Fatalf("DP group size %d, want 4", len(g))
			}
		default:
			t.Fatalf("unexpected colls %d", colls[i])
		}
	}
	if tp != 16 || dp != 16 {
		t.Fatalf("tp=%d dp=%d, want 16 each", tp, dp)
	}
	// Every GPU appears in exactly two groups (one TP, one DP).
	seen := make(map[int]int)
	for _, g := range groups {
		for _, gpu := range g {
			seen[gpu]++
		}
	}
	for gpu, cnt := range seen {
		if cnt != 2 {
			t.Fatalf("gpu %d in %d groups, want 2", gpu, cnt)
		}
	}
	// The paper's GPT-3-inspired case.
	_, _, n2 := ThreeD(8, 6, 64, 400, 1200)
	if n2 != 3072 {
		t.Fatalf("(8,6,64) gpus = %d, want 3072", n2)
	}
}

func TestFreeGroupingShape(t *testing.T) {
	groups, colls := FreeGrouping(28, 3, 4, 8, 64, 400, 1200, 99)
	if len(groups) != 32 {
		t.Fatalf("groups = %d, want 32", len(groups))
	}
	small, big := 0, 0
	for _, g := range groups {
		switch len(g) {
		case 3:
			small++
		case 8:
			big++
		default:
			t.Fatalf("unexpected group size %d", len(g))
		}
	}
	if small != 28 || big != 4 {
		t.Fatalf("small=%d big=%d", small, big)
	}
	a, b := 0, 0
	for _, c := range colls {
		switch c {
		case 400:
			a++
		case 1200:
			b++
		}
	}
	if a != 16 || b != 16 {
		t.Fatalf("collective split %d/%d, want 16/16", a, b)
	}
	// Group members must be unique within a group.
	for gi, g := range groups {
		seen := map[int]bool{}
		for _, gpu := range g {
			if seen[gpu] {
				t.Fatalf("group %d has duplicate member %d", gi, gpu)
			}
			seen[gpu] = true
		}
	}
}

func TestStallAgreesWithCycleDetection(t *testing.T) {
	// Cross-validate: whenever the fixpoint stalls, the paper's
	// dependency graph must contain a cycle; whenever it completes,
	// the final graph must be cycle-free.
	for seed := int64(0); seed < 40; seed++ {
		cfg := twoGPUConfig(SingleQueue, 30, 0.05, 0, 1, seed)
		deadlocked, simulated, g := debugRound(cfg, 50)
		if !simulated {
			continue
		}
		if deadlocked != g.deadlocked() {
			t.Fatalf("seed %d (single-queue): stall=%v but cycle=%v", seed, deadlocked, g.deadlocked())
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		cfg := twoGPUConfig(Synchronization, 60, 0.03, 0.03, 1, seed)
		deadlocked, simulated, g := debugRound(cfg, 50)
		if !simulated {
			continue
		}
		if deadlocked != g.deadlocked() {
			t.Fatalf("seed %d (sync): stall=%v but cycle=%v", seed, deadlocked, g.deadlocked())
		}
	}
}

func TestMultiGroupCrossValidation(t *testing.T) {
	groups, colls := FreeGrouping(4, 3, 2, 5, 8, 20, 60, 3)
	for seed := int64(0); seed < 30; seed++ {
		cfg := Config{
			Name: "xv", Model: Synchronization,
			Groups: groups, CollsPerGroup: colls, NumGPUs: 8,
			DisorderProb: 0.02, SyncProb: 0.02, Rounds: 1, Seed: seed,
		}
		deadlocked, simulated, g := debugRound(cfg, 100)
		if !simulated {
			continue
		}
		if deadlocked != g.deadlocked() {
			t.Fatalf("seed %d: stall=%v cycle=%v", seed, deadlocked, g.deadlocked())
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := twoGPUConfig(Synchronization, 100, 0.02, 0.02, 500, 77)
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Deadlocks != r2.Deadlocks || r1.SkippedClean != r2.SkippedClean {
		t.Fatalf("nondeterministic: %+v vs %+v", r1, r2)
	}
}

func TestTable1ConfigsValid(t *testing.T) {
	cfgs := Table1Configs(10)
	if len(cfgs) != 18 {
		t.Fatalf("configs = %d, want 18 rows", len(cfgs))
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestTable1SmallConfigRatioInRange(t *testing.T) {
	if testing.Short() {
		t.Skip("ratio estimation needs rounds")
	}
	// The (1,8) free-grouping single-queue row: paper reports 1.21%.
	// With 161 collectives × 8 GPUs and disorder 1e-5, P(≥1 disorder)
	// ≈ 1.28%; almost every disordered round deadlocks. Accept the
	// right order of magnitude.
	groups, colls := FreeGrouping(1, 8, 0, 0, 8, 161, 161, 99)
	cfg := Config{
		Name: "free(1,8)", Model: SingleQueue,
		Groups: groups, CollsPerGroup: colls, NumGPUs: 8,
		DisorderProb: 1e-5, Rounds: 32000, Seed: 1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio() < 0.004 || res.Ratio() > 0.03 {
		t.Fatalf("ratio = %.4f, want ≈0.012 (paper: 1.21%%)", res.Ratio())
	}
}

func TestBinomialSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Mean of Binomial(n,p) ≈ np for the three sampling regimes.
	cases := []struct {
		n int
		p float64
	}{
		{50, 0.3},      // exact
		{100000, 1e-4}, // Poisson
		{100000, 1e-2}, // normal approx
	}
	for _, c := range cases {
		const trials = 3000
		sum := 0
		for i := 0; i < trials; i++ {
			k := binomial(rng, c.n, c.p)
			if k < 0 || k > c.n {
				t.Fatalf("binomial(%d,%v) = %d out of range", c.n, c.p, k)
			}
			sum += k
		}
		mean := float64(sum) / trials
		want := float64(c.n) * c.p
		if math.Abs(mean-want) > 0.15*want+0.3 {
			t.Fatalf("binomial(%d,%v) mean = %v, want ≈%v", c.n, c.p, mean, want)
		}
	}
	if binomial(rng, 10, 0) != 0 || binomial(rng, 0, 0.5) != 0 || binomial(rng, 10, 1) != 10 {
		t.Fatal("binomial edge cases wrong")
	}
}

// Property: for any small random configuration, stall detection and
// dependency-cycle detection agree.
func TestStallCycleAgreementProperty(t *testing.T) {
	f := func(seed int64, collsRaw, disRaw, syncRaw uint8) bool {
		colls := int(collsRaw)%40 + 5
		dis := float64(disRaw%50)/1000 + 0.001
		sync := float64(syncRaw%50) / 1000
		model := SingleQueue
		if sync > 0.02 {
			model = Synchronization
		}
		cfg := Config{
			Name: "prop", Model: model,
			Groups:        [][]int{{0, 1, 2}, {1, 2, 3}},
			CollsPerGroup: []int{colls, colls * 2},
			NumGPUs:       4,
			DisorderProb:  dis, SyncProb: sync,
			Rounds: 1, Seed: seed,
		}
		deadlocked, simulated, g := debugRound(cfg, 60)
		if !simulated {
			return true
		}
		return deadlocked == g.deadlocked()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
