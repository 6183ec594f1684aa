package fabric

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// near asserts got is within tol of want (float rounding in the flow
// scheduler can shift completions by a nanosecond per re-predict).
func near(t *testing.T, what string, got, want, tol sim.Duration) {
	t.Helper()
	if d := got - want; d < -tol || d > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", what, got, want, tol)
	}
}

// TestUnsharedMatchesLegacyExactly checks the regression contract: an
// Unshared network prices every transfer at exactly Path.TransferTime.
func TestUnsharedMatchesLegacyExactly(t *testing.T) {
	c := topo.NewCluster(2, 4, topo.RTX3090, topo.DefaultLinks)
	n := Unshared(c)
	pairs := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 3}, {0, 4}, {3, 7}, {6, 1}}
	sizes := []int{0, 1, 137, 4096, 1 << 20}
	e := sim.NewEngine()
	e.Spawn("xfers", func(p *sim.Process) {
		for _, pr := range pairs {
			r := n.RouteBetween(pr[0], pr[1])
			if len(r.Links) != 0 {
				t.Errorf("unshared route %v has %d links", pr, len(r.Links))
			}
			for _, sz := range sizes {
				start := p.Now()
				n.Transfer(p, r, sz)
				got := p.Now().Sub(start)
				want := sim.Duration(r.Path.TransferTime(sz))
				if got != want {
					t.Errorf("pair %v size %d: got %v, want %v", pr, sz, got, want)
				}
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(n.Snapshot()) != 0 {
		t.Fatalf("unshared network has link stats: %v", n.Snapshot())
	}
}

// TestLoneFlowMatchesLegacyWithinRounding: on a non-blocking fabric a
// lone flow serializes at its full Path.Bandwidth; only the
// ceil-vs-truncate nanosecond rounding can differ from legacy pricing.
func TestLoneFlowMatchesLegacyWithinRounding(t *testing.T) {
	c := topo.NewCluster(4, 4, topo.RTX3090, topo.DefaultLinks)
	n := Shared(c, OversubConfig(1))
	pairs := [][2]int{{0, 1}, {0, 2}, {0, 4}, {0, 12}, {5, 15}}
	e := sim.NewEngine()
	e.Spawn("xfers", func(p *sim.Process) {
		for _, pr := range pairs {
			r := n.RouteBetween(pr[0], pr[1])
			start := p.Now()
			n.Transfer(p, r, 1<<20)
			got := p.Now().Sub(start)
			want := sim.Duration(r.Path.TransferTime(1 << 20))
			near(t, "lone flow", got, want, 1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTaperedPoolCapsLoneFlow pins the capacity-pool semantics of the
// oversubscription taper: at F=4 on 4 machines the spine pool
// (M×RDMA/F² = 1.55 GB/s) sits below a single NIC's line rate, so even
// an uncontended cross-leaf flow is held to the pool — a blocking core,
// not just a contention effect.
func TestTaperedPoolCapsLoneFlow(t *testing.T) {
	links := topo.DefaultLinks
	c := topo.NewCluster(4, 1, topo.RTX3090, links)
	n := Shared(c, OversubConfig(4))
	e := sim.NewEngine()
	var end sim.Time
	e.Spawn("flow", func(p *sim.Process) {
		n.Transfer(p, n.RouteBetween(0, 2), 1<<20)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	spineCap := 4 * links.RDMABW / 16
	want := sim.Duration(links.RDMALat) + sim.Duration(math.Ceil((1<<20)/spineCap*1e9))
	near(t, "tapered lone flow", sim.Duration(end), want, 3)
}

// TestFlowJoinReschedules walks the canonical piecewise case: B joins
// halfway through A, both drop to half rate, A's tail stretches 2×, and
// after A leaves B speeds back up.
func TestFlowJoinRescheduled(t *testing.T) {
	c := topo.NewCluster(2, 1, topo.RTX3090, topo.DefaultLinks)
	n := Shared(c, OversubConfig(1))
	const bytes = 620000 // 100µs at the 6.2 GB/s RDMA path
	r := n.RouteBetween(0, 1)
	e := sim.NewEngine()
	var aEnd, bEnd sim.Time
	e.Spawn("A", func(p *sim.Process) {
		n.Transfer(p, r, bytes)
		aEnd = p.Now()
	})
	e.Spawn("B", func(p *sim.Process) {
		p.Sleep(50 * sim.Microsecond)
		n.Transfer(p, r, bytes)
		bEnd = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// A: 9µs latency + 50µs at full rate + 100µs at half rate = 159µs.
	near(t, "flow A end", sim.Duration(aEnd), 159*sim.Microsecond, 3)
	// B: joins at 59µs, 100µs at half rate + 50µs at full rate.
	near(t, "flow B end", sim.Duration(bEnd), 209*sim.Microsecond, 3)

	stats := n.Snapshot()
	var tx LinkStat
	for _, s := range stats {
		if s.Name == "nic-tx/m0" {
			tx = s
		}
	}
	if math.Abs(tx.Bytes-2*bytes) > 1 {
		t.Fatalf("nic-tx/m0 carried %.0f bytes, want %d", tx.Bytes, 2*bytes)
	}
	// The NIC runs at line rate the whole time — alone or shared, its
	// full capacity is allocated, so busy and saturated both span
	// 9µs..209µs.
	near(t, "nic-tx saturated", tx.Saturated, 200*sim.Microsecond, 5)
	near(t, "nic-tx busy", tx.Busy, 200*sim.Microsecond, 5)
}

// TestSpineSaturationPoint sweeps concurrent cross-leaf flows over an
// oversubscribed spine and asserts the saturation knee, inference-sim
// style: per-flow completion matches the analytic bottleneck share
// min(pathBW, spineCap/flows, leafCap/flows-per-leaf), and the spine's
// saturated-time counter turns on exactly when the aggregate demand
// reaches the pool.
func TestSpineSaturationPoint(t *testing.T) {
	const bytes = 1 << 20
	links := topo.DefaultLinks
	// 4 single-GPU machines, two per leaf. Taper √2 per tier: each leaf
	// uplinks 2×RDMA/√2 = √2×RDMA, the spine carries 4×RDMA/2 = 2×RDMA.
	f := math.Sqrt2
	leafCap := 2 * links.RDMABW / f
	spineCap := 4 * links.RDMABW / (f * f)
	// Flows start on alternating leaves, so the first two share no leaf
	// link and nf flows put ⌈nf/2⌉ on the busiest one.
	srcs := []int{0, 2, 1, 3}
	for nf := 1; nf <= 4; nf++ {
		c := topo.NewCluster(4, 1, topo.RTX3090, links)
		n := Shared(c, OversubConfig(f))
		e := sim.NewEngine()
		ends := make([]sim.Time, nf)
		for i := 0; i < nf; i++ {
			i := i
			src, dst := srcs[i], (srcs[i]+2)%4 // always cross-leaf
			e.Spawn("flow", func(p *sim.Process) {
				n.Transfer(p, n.RouteBetween(src, dst), bytes)
				ends[i] = p.Now()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		rate := min(links.RDMABW, spineCap/float64(nf), leafCap/float64((nf+1)/2))
		want := sim.Duration(links.RDMALat) + sim.Duration(math.Ceil(bytes/rate*1e9))
		for _, end := range ends {
			near(t, "flow completion", sim.Duration(end), want, 3)
		}
		var spine LinkStat
		for _, s := range n.Snapshot() {
			if s.Tier == TierSpine {
				spine = s
			}
		}
		if nf >= 2 && spine.Saturated == 0 {
			t.Fatalf("%d flows: spine never saturated (demand %d×RDMA ≥ cap 2×RDMA)", nf, nf)
		}
		if nf < 2 && spine.Saturated != 0 {
			t.Fatalf("%d flow: spine reported saturated %v below the knee", nf, spine.Saturated)
		}
		if math.Abs(spine.Bytes-float64(nf*bytes)) > float64(nf) {
			t.Fatalf("%d flows: spine carried %.0f bytes, want %d", nf, spine.Bytes, nf*bytes)
		}
	}
}

// TestRouteLinksByTier pins the link composition of each route class.
func TestRouteLinksByTier(t *testing.T) {
	c := topo.NewCluster(4, 8, topo.RTX3090, topo.DefaultLinks)
	n := Shared(c, OversubConfig(1)) // leaves {m0,m1}, {m2,m3}
	tiersOf := func(a, b int) []string {
		var out []string
		for _, l := range n.RouteBetween(a, b).Links {
			out = append(out, l.Tier.String())
		}
		return out
	}
	cases := []struct {
		a, b int
		want []string
	}{
		{0, 0, nil},                                              // local
		{0, 1, []string{"shm"}},                                  // same domain
		{0, 4, []string{"shm", "sys", "shm"}},                    // cross socket
		{0, 8, []string{"nic", "nic"}},                           // same leaf
		{0, 16, []string{"nic", "leaf", "spine", "leaf", "nic"}}, // cross leaf
		{31, 0, []string{"nic", "leaf", "spine", "leaf", "nic"}}, // reverse
	}
	for _, tc := range cases {
		if got := tiersOf(tc.a, tc.b); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("route %d->%d: tiers %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestDeterministicReplay: identical flow programs produce bit-identical
// snapshots and completions across runs (slice-order solving, no maps
// in the hot path).
func TestDeterministicReplay(t *testing.T) {
	run := func() ([]LinkStat, sim.Time) {
		c := topo.NewCluster(4, 2, topo.RTX3090, topo.DefaultLinks)
		n := Shared(c, OversubConfig(2))
		e := sim.NewEngine()
		var last sim.Time
		for i := 0; i < 8; i++ {
			src, dst := i, (i+3)%8
			e.Spawn("flow", func(p *sim.Process) {
				p.Sleep(sim.Duration(src) * sim.Microsecond)
				n.Transfer(p, n.RouteBetween(src, dst), 300000+1000*src)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return n.Snapshot(), last
	}
	s1, t1 := run()
	s2, t2 := run()
	if t1 != t2 {
		t.Fatalf("end times differ across replays: %v vs %v", t1, t2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ across replays:\n%v\n%v", s1, s2)
	}
}

// TestTierSummary folds a synthetic snapshot and checks ordering and
// peak selection.
func TestTierSummary(t *testing.T) {
	stats := []LinkStat{
		{Name: "spine", Tier: TierSpine, Capacity: 10e9, Bytes: 5e9, Saturated: 10},
		{Name: "shm/0", Tier: TierSHM, Capacity: 40e9, Bytes: 4e9},
		{Name: "shm/1", Tier: TierSHM, Capacity: 40e9, Bytes: 8e9},
	}
	sum := TierSummary(stats, sim.Second)
	if len(sum) != 2 || sum[0].Tier != TierSHM || sum[1].Tier != TierSpine {
		t.Fatalf("summary tiers wrong: %+v", sum)
	}
	if sum[0].Links != 2 || sum[0].Bytes != 12e9 {
		t.Fatalf("shm row wrong: %+v", sum[0])
	}
	if got, want := sum[0].PeakUtil, 0.2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("shm peak util %v, want %v", got, want)
	}
	if sum[1].Saturated != 10 {
		t.Fatalf("spine saturated %v, want 10", sum[1].Saturated)
	}
}

// TestRecomputeInvariantHolds drives the solver the way TransferJob does
// — a flow joins or finishes, recompute — through 1 000 seeded random
// sequences on four 8-GPU machines behind a 4:1 tapered leaf and spine.
// recompute itself panics if a link is over-committed or a flow is left
// without a rate; the test adds the half it cannot afford on every solve:
// the rates are max-min fair, so every flow runs at its path's cap or
// crosses a link the solve left saturated. It also holds join and remove to
// the busy links the solve walks: exactly the links of the live flows, in
// construction order, and every other link idle with nothing allocated.
func TestRecomputeInvariantHolds(t *testing.T) {
	n := Shared(topo.MultiNode3090(4), OversubConfig(4))
	size := n.Cluster().Size()
	for seq := 0; seq < 1000; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		for len(n.flows) > 0 {
			n.remove(n.flows[0])
		}
		for step := 0; step < 48; step++ {
			if len(n.flows) > 0 && rng.Intn(3) == 0 {
				n.remove(n.flows[rng.Intn(len(n.flows))])
			} else {
				a := rng.Intn(size)
				b := (a + 1 + rng.Intn(size-1)) % size
				r := n.RouteBetween(a, b)
				n.join(&flow{route: r, remaining: 1 << 20, cap: r.Path.Bandwidth})
			}
			n.recompute(nil) // no flow is waited on
			var busy []*Link
			for _, l := range n.links {
				crossed := slices.ContainsFunc(n.flows, func(f *flow) bool { return crosses(f, l) })
				if crossed {
					busy = append(busy, l)
				} else if l.nflows != 0 || l.alloc != 0 || l.saturatedNow {
					t.Fatalf("sequence %d step %d: idle link %s has %d flows, %.0f B/s allocated, saturated %v",
						seq, step, l.Name, l.nflows, l.alloc, l.saturatedNow)
				}
			}
			if got := slices.Collect(n.busyLinks); !slices.Equal(got, busy) {
				t.Fatalf("sequence %d step %d: busy links %v, want those of the live flows %v", seq, step, linkNames(got), linkNames(busy))
			}
			for _, f := range n.flows {
				bottlenecked := f.rate == f.cap
				for _, l := range f.route.Links {
					bottlenecked = bottlenecked || l.saturatedNow
				}
				if f.rate <= 0 || f.rate > f.cap || !bottlenecked {
					t.Fatalf("sequence %d step %d: a flow of %d runs at %.0f B/s (cap %.0f) with no saturated link on its route",
						seq, step, len(n.flows), f.rate, f.cap)
				}
			}
		}
	}

	// The check bites: recompute floors rates at 1 B/s, which a link
	// with less than that cannot carry.
	thin := &Network{shared: true}
	l := thin.addLink("thin", TierSpine, 0.5)
	thin.join(&flow{route: Route{Links: []*Link{l}}, remaining: 1, cap: 10})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "link thin") {
			t.Fatalf("recompute over an over-committed link: recovered %v, want a panic naming it", r)
		}
	}()
	thin.recompute(nil)
}

// linkNames names links for failure messages.
func linkNames(links []*Link) []string {
	var names []string
	for _, l := range links {
		names = append(names, l.Name)
	}
	return names
}

// blockingTransfer is TransferJob written as blocking code: the
// transferring process sleeps its latency, joins, and waits on a condition
// with a timer at its predicted completion, re-predicting after every
// wake-up until its bytes are gone. With wakeAll nil it waits on its flow's
// own condition, which only a solve that changes its rate signals: the
// model TransferJob runs. With a wakeAll condition, broadcast after every
// join and finish, every flow re-predicts at every join and finish: the
// model before a flow was woken only by a rate change. It returns how many
// completions the flow predicted.
func blockingTransfer(n *Network, p *sim.Process, r Route, bytes, job int, wakeAll *sim.Cond) (predictions int) {
	if n.jobBytes == nil {
		n.jobBytes = make(map[int]int64)
	}
	n.jobBytes[job] += int64(bytes)
	p.Sleep(sim.Duration(r.Path.Latency))
	e := p.Engine()
	f := &flow{route: r, remaining: float64(bytes), cap: r.Path.Bandwidth, job: job, size: float64(bytes)}
	if n.rec != nil {
		n.flowSeq++
		f.id = n.flowSeq
		n.rec.RecordFlow(trace.FlowEvent{At: e.Now(), ID: f.id, Kind: trace.FlowStart, Bytes: bytes, Job: job})
	}
	wait := &f.rerated
	if wakeAll != nil {
		wait = wakeAll
	}
	n.advance(e.Now())
	n.join(f)
	n.recompute(e)
	if wakeAll != nil {
		wakeAll.Broadcast(e)
	}
	for {
		n.advance(e.Now())
		if f.remaining <= 0 {
			break
		}
		predictions++
		wait.WaitTimeout(p, sim.Duration(math.Ceil(f.remaining/f.rate*1e9)))
	}
	n.remove(f)
	n.recompute(e)
	if wakeAll != nil {
		wakeAll.Broadcast(e)
	}
	if n.rec != nil {
		n.rec.RecordFlow(trace.FlowEvent{At: e.Now(), ID: f.id, Kind: trace.FlowEnd, Job: f.job})
	}
	return predictions
}

// transferModel names how a run of TestRepredictMatchesLoop transfers.
type transferModel int

const (
	viaMachine transferModel = iota // TransferJob: an Xfer, Awaited
	viaLoop                         // blockingTransfer, woken by rate changes
	viaWakeAll                      // blockingTransfer, woken by every join and finish
)

// TestRepredictMatchesLoop runs 1 000 seeded programs of up to ten
// processes, each making up to three transfers at drawn instants over
// drawn routes of four 8-GPU machines behind a 4:1 tapered leaf and spine,
// through TransferJob and through its blocking loop (blockingTransfer
// without wakeAll). Start times and sizes come from small sets, so joins
// and finishes keep falling on the same nanosecond. Everything observable
// must be equal: when each transfer finished, the link counters, the
// recorded flow and saturation events, the per-job bytes and the engine's
// timeline. What differs is who ran: with the transfer as a machine the
// engine runs (Xfer) a transferring process is resumed for its start delay
// and its completion, and never between the start of its transfer and its
// flow's finish. The test fails when a flow's turn forgets to advance the
// flows before it re-predicts.
//
// The same programs also run with every flow woken by every join and
// finish (blockingTransfer with wakeAll), the model before a flow was woken
// only by a change of its rate. A skipped re-prediction may move a finish
// by the nanosecond its ceil rounded, so each finish may differ from that
// model by at most the predictions its process's flows skipped so far, in
// ns; the link counters by the programs' total of them, or float rounding.
func TestRepredictMatchesLoop(t *testing.T) {
	type outcome struct {
		finished    []sim.Time
		links       []LinkStat
		rec         trace.Recorder
		jobBytes    map[int]int64
		fingerprint uint64
		resumes     uint64
	}
	type program struct {
		out         outcome
		predictions []int // per transfer, in the order of finished
		first       []int // per transfer, the index of its process's first
		wantResumes uint64
	}
	run := func(seed int64, model transferModel) (pr program) {
		rng := rand.New(rand.NewSource(seed))
		n := Shared(topo.MultiNode3090(4), OversubConfig(4))
		n.SetRecorder(&pr.out.rec)
		wakeAll := sim.NewCond("wake-all")
		size := n.Cluster().Size()
		e := sim.NewEngine()
		e.MaxTime = sim.Time(sim.Second) // a flow that never drains fails the run, not the suite's timeout
		for proc, procs := 0, 2+rng.Intn(9); proc < procs; proc++ {
			type xfer struct {
				delay      sim.Duration
				route      Route
				bytes, job int
			}
			xfers := make([]xfer, 1+rng.Intn(3))
			for i := range xfers {
				a := rng.Intn(size)
				xfers[i] = xfer{
					delay: []sim.Duration{0, 0, sim.Microsecond, sim.Duration(rng.Intn(20000))}[rng.Intn(4)],
					route: n.RouteBetween(a, (a+1+rng.Intn(size-1))%size),
					bytes: []int{1, 64 << 10, 64 << 10, 1 << 20, 1 + rng.Intn(1<<20)}[rng.Intn(5)],
					job:   rng.Intn(3),
				}
			}
			pr.wantResumes += 1 + 2*uint64(len(xfers))
			first := len(pr.out.finished)
			for range xfers {
				pr.first = append(pr.first, first)
			}
			pr.out.finished = append(pr.out.finished, make([]sim.Time, len(xfers))...)
			pr.predictions = append(pr.predictions, make([]int, len(xfers))...)
			e.Spawn(fmt.Sprintf("p%d", proc), func(p *sim.Process) {
				for i, x := range xfers {
					p.Sleep(x.delay)
					switch model {
					case viaMachine:
						n.TransferJob(p, x.route, x.bytes, x.job)
					case viaLoop:
						pr.predictions[first+i] = blockingTransfer(n, p, x.route, x.bytes, x.job, nil)
					case viaWakeAll:
						pr.predictions[first+i] = blockingTransfer(n, p, x.route, x.bytes, x.job, wakeAll)
					}
					pr.out.finished[first+i] = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if len(n.flows) != 0 {
			t.Fatalf("seed %d: %d flows left on the network", seed, len(n.flows))
		}
		pr.out.links, pr.out.jobBytes = n.Snapshot(), n.JobBytes()
		pr.out.fingerprint, pr.out.resumes = e.Fingerprint(), e.Resumes()
		return pr
	}
	sameInstant, saved, skipped, moved, transfers, most := 0, uint64(0), 0, 0, 0, sim.Duration(0)
	for seed := int64(0); seed < 1000; seed++ {
		want := run(seed, viaLoop)
		got := run(seed, viaMachine)
		if got.out.resumes != got.wantResumes {
			t.Fatalf("seed %d: %d resumes, want %d: one per start delay and completion", seed, got.out.resumes, got.wantResumes)
		}
		saved += want.out.resumes - got.out.resumes
		got.out.resumes = want.out.resumes
		if !reflect.DeepEqual(got.out, want.out) {
			t.Fatalf("seed %d: TransferJob and its blocking loop disagree:\n got %+v\nwant %+v", seed, got.out, want.out)
		}
		ends := slices.Sorted(slices.Values(want.out.finished))
		if len(slices.Compact(ends)) < len(ends) {
			sameInstant++
		}

		all := run(seed, viaWakeAll)
		if !maps.Equal(all.out.jobBytes, want.out.jobBytes) {
			t.Fatalf("seed %d: per-job bytes %v, %v when every flow is woken", seed, want.out.jobBytes, all.out.jobBytes)
		}
		bound, total := sim.Duration(0), sim.Duration(0)
		for i, end := range want.out.finished {
			if want.first[i] == i {
				bound = 0
			}
			skip := all.predictions[i] - want.predictions[i]
			bound += sim.Duration(max(skip, 0))
			total += sim.Duration(max(skip, 0))
			skipped += skip
			transfers++
			if d := end.Sub(all.out.finished[i]); d != 0 {
				moved, most = moved+1, max(most, d, -d)
				if d < -bound || d > bound {
					t.Fatalf("seed %d: transfer %d finished at %v, %v when every flow is woken: %d ns apart, %d predictions skipped",
						seed, i, end, all.out.finished[i], d, bound)
				}
			}
		}
		for i, l := range want.out.links {
			a := all.out.links[i]
			near(t, fmt.Sprintf("seed %d: %s busy", seed, l.Name), l.Busy, a.Busy, total)
			near(t, fmt.Sprintf("seed %d: %s saturated", seed, l.Name), l.Saturated, a.Saturated, total)
			if tol := 1e-9*a.Bytes + l.Capacity*float64(total)/1e9; math.Abs(l.Bytes-a.Bytes) > tol {
				t.Fatalf("seed %d: %s carried %.3f B, %.3f B when every flow is woken (±%.3f)", seed, l.Name, l.Bytes, a.Bytes, tol)
			}
		}
	}
	t.Logf("%d of %d finishes moved against waking every flow, by at most %v; %d re-predictions skipped", moved, transfers, most, skipped)
	if sameInstant < 100 || saved < 10000 || skipped < 10000 {
		t.Fatalf("%d of 1000 programs finish two transfers in one nanosecond, %d resumes saved, %d re-predictions skipped: the corpus does not exercise re-prediction",
			sameInstant, saved, skipped)
	}
}

// turnCounter is a transfer Awaited through a wrapper that counts the
// engine's turns for it.
type turnCounter struct {
	x     Xfer
	turns int
}

func (c *turnCounter) Next() (sim.Wait, bool) {
	c.turns++
	return c.x.Next()
}

// TestJoinWakesOnlyReratedFlows: A (m0→m1) and B (m2→m3) run alone at
// line rate; C joins halfway and leaves before them. A flow takes three
// turns of its own (latency, join, completion). On links disjoint from
// both (m1→m0), C's join and finish change no rate, and neither A nor B
// takes an extra turn. Sharing A's NIC (m0→m2), C halves A's rate at its
// join and restores it at its finish: A takes exactly those two extra
// turns, B none.
func TestJoinWakesOnlyReratedFlows(t *testing.T) {
	const bytes = 620000 // 100µs at the 6.2 GB/s RDMA path
	for _, tc := range []struct {
		name         string
		c            [2]int
		turnsA, endA sim.Duration
	}{
		{"disjoint", [2]int{1, 0}, 3, 109 * sim.Microsecond},
		{"shared", [2]int{0, 2}, 5, 119 * sim.Microsecond}, // C's 62 kB at half rate costs A 10µs
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := Shared(topo.NewCluster(4, 1, topo.RTX3090, topo.DefaultLinks), OversubConfig(1))
			e := sim.NewEngine()
			var a, b, c turnCounter
			var endA, endB sim.Time
			transfer := func(tc *turnCounter, from, to, size int, end *sim.Time) func(p *sim.Process) {
				return func(p *sim.Process) {
					tc.x.Begin(n, e, n.RouteBetween(from, to), size, 0)
					p.Await(tc)
					if end != nil {
						*end = p.Now()
					}
				}
			}
			e.Spawn("A", transfer(&a, 0, 1, bytes, &endA))
			e.Spawn("B", transfer(&b, 2, 3, bytes, &endB))
			e.Spawn("C", func(p *sim.Process) {
				p.Sleep(50 * sim.Microsecond)
				transfer(&c, tc.c[0], tc.c[1], bytes/10, nil)(p)
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if a.turns != int(tc.turnsA) || b.turns != 3 || c.turns != 3 {
				t.Fatalf("turns A %d, B %d, C %d; want %d, 3, 3", a.turns, b.turns, c.turns, tc.turnsA)
			}
			near(t, "A's end", sim.Duration(endA), tc.endA, 2)
			near(t, "B's end", sim.Duration(endB), 109*sim.Microsecond, 1)
		})
	}
}

// TestFlowDueInvariant breaks the rule that a solve which changes a flow's
// rate wakes it: a saboteur halfway through a lone flow accrues its
// progress and then changes its rate behind its back. A rate cut leaves
// bytes at the predicted completion, found by the flow's turn there; a
// rate rise drains the flow long before it, found by the accounting that
// carries it past its end.
func TestFlowDueInvariant(t *testing.T) {
	for _, tc := range []struct {
		factor float64
		detail string
	}{
		{0.5, "left at its predicted completion"},
		{2, "past its end"},
	} {
		n := Shared(topo.NewCluster(2, 1, topo.RTX3090, topo.DefaultLinks), OversubConfig(1))
		e := sim.NewEngine()
		e.Spawn("flow", func(p *sim.Process) { n.Transfer(p, n.RouteBetween(0, 1), 620000) })
		e.Spawn("saboteur", func(p *sim.Process) {
			p.Sleep(50 * sim.Microsecond)
			n.advance(p.Now())
			n.flows[0].rate *= tc.factor
		})
		if err := e.Run(); err == nil || !strings.Contains(err.Error(), "fabric: flow-due") || !strings.Contains(err.Error(), tc.detail) {
			t.Fatalf("rate ×%v behind the flow's back: Run: %v; want a flow-due panic (%s)", tc.factor, err, tc.detail)
		}
	}
}

// TestXferBeginUnheld re-arms a transfer whose flow is still on the wire,
// waited on by the process moving it: Begin panics naming the invariant,
// before it touches the transfer, which then finishes on time. (Without
// the check the re-armed flow corrupts the network's flow set, and the
// run spins at one instant, so the test fails from inside the process.)
func TestXferBeginUnheld(t *testing.T) {
	n := Shared(topo.NewCluster(2, 1, topo.RTX3090, topo.DefaultLinks), OversubConfig(1))
	e := sim.NewEngine()
	var x Xfer
	var end sim.Time
	e.Spawn("flow", func(p *sim.Process) {
		x.Begin(n, e, n.RouteBetween(0, 1), 620000, 0)
		p.Await(&x)
		end = p.Now()
	})
	e.Spawn("reuser", func(p *sim.Process) {
		p.Sleep(50 * sim.Microsecond)
		defer func() {
			if r := recover(); !strings.Contains(fmt.Sprint(r), "fabric: xfer-begin-unheld") {
				t.Fatalf("Begin on a transfer in flight: recovered %v, want a panic naming xfer-begin-unheld", r)
			}
		}()
		x.Begin(n, e, n.RouteBetween(1, 0), 1, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, "the transfer's end", sim.Duration(end), 109*sim.Microsecond, 1)
}

// TestXferBeginArmsAFreshFlow: Begin sets the flow's fields one by one,
// not from a literal, so it must still leave every field but the
// condition (unwaited, which Begin checks) as a new flow would have it,
// whatever a finished transfer left there. Every such field is set
// first, so a field added to flow and not re-armed fails here.
func TestXferBeginArmsAFreshFlow(t *testing.T) {
	n := Shared(topo.NewCluster(2, 1, topo.RTX3090, topo.DefaultLinks), OversubConfig(1))
	e := sim.NewEngine()
	var x Xfer
	v := reflect.ValueOf(&x.flow).Elem()
	for i := range v.NumField() {
		switch f := reflect.NewAt(v.Field(i).Type(), v.Field(i).Addr().UnsafePointer()).Elem(); f.Kind() {
		case reflect.Float64:
			f.SetFloat(7)
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Struct:
			if f.Type() == reflect.TypeOf(Route{}) {
				f.Set(reflect.ValueOf(n.RouteBetween(1, 0)))
			} else if f.Type() != reflect.TypeOf(sim.Cond{}) {
				t.Fatalf("flow.%s: a field of type %v this test cannot set", v.Type().Field(i).Name, f.Type())
			}
		default:
			t.Fatalf("flow.%s: a field of type %v this test cannot set", v.Type().Field(i).Name, f.Type())
		}
	}
	r := n.RouteBetween(0, 1)
	x.Begin(n, e, r, 620000, 3)
	want := flow{route: r, remaining: 620000, cap: r.Path.Bandwidth, job: 3, size: 620000}
	if !reflect.DeepEqual(x.flow, want) {
		t.Errorf("Begin armed %+v, want %+v", x.flow, want)
	}
}

// BenchmarkFlowEvent is the host cost of one small transfer (a join and a
// finish, each re-solving the rates and waking the flows it re-rates) while 64
// long transfers cross the same 4:1 tapered spine.
func BenchmarkFlowEvent(b *testing.B) {
	n := Shared(topo.MultiNode3090(4), OversubConfig(4))
	e := sim.NewEngine()
	done := false
	for i := 0; i < 64; i++ {
		r := n.RouteBetween(i%16, 16+(i+i/16)%16)
		e.Spawn("background", func(p *sim.Process) {
			for !done {
				n.Transfer(p, r, 256<<20)
			}
		})
	}
	e.Spawn("probe", func(p *sim.Process) {
		r := n.RouteBetween(3, 29)
		p.Sleep(sim.Millisecond) // every background flow has joined
		if len(n.flows) != 64 {
			b.Errorf("%d background flows live, want 64", len(n.flows))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Transfer(p, r, 4096)
		}
		b.StopTimer()
		done = true
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
