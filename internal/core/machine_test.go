package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
)

// oracleCase is one program of the daemon and poller oracle: four ranks
// open colls all-reduces (IDs 1..colls, 64<<c floats) and, for iters
// rounds, pause idle, launch each collective runs times, in their own
// random order when shuffle is set, and wait for all of them.
type oracleCase struct {
	name    string
	cfg     func(*Config)
	colls   int
	iters   int
	runs    int
	shuffle bool
	prio    bool         // collective c is opened with priority c
	idle    sim.Duration // before each round
	tail    sim.Duration // after the last round, before Destroy
	kill    sim.Duration // when non-zero, rank 3 is killed at this instant
}

// oracleOutcome is everything a program shows of the daemon and poller.
type oracleOutcome struct {
	Fingerprint uint64
	End         sim.Time
	Stats       []RankStats
	Prims       []int    // every executor's PrimsExecuted, in open order
	Recv        [][]byte // every recv buffer, in open order
	Callbacks   []sim.Time
	Lost        int // callbacks and launches that reported the rank loss
}

// smallSpin makes a primitive stick after a few microseconds of waiting.
func smallSpin(c *Config) {
	c.Spin.InitialFront, c.Spin.MinInitial, c.Spin.BoostFactor, c.Spin.MaxThreshold = 400, 100, 2, 2000
}

// oracleCorpus reaches every state of both machines (TestDaemonMatchesBlocking
// checks that it does).
var oracleCorpus = []oracleCase{
	{name: "lockstep", colls: 1, iters: 8, runs: 1},
	{name: "disorder-stuck", colls: 4, iters: 3, runs: 1, shuffle: true, cfg: smallSpin},
	{name: "fifo-backoff", colls: 4, iters: 3, runs: 1, shuffle: true, cfg: func(c *Config) {
		c.Spin = NaiveSpinPolicy()
		c.Spin.FixedThreshold = 300
		c.FetchBackoff = sim.Microsecond
	}},
	{name: "priority", colls: 4, iters: 3, runs: 1, shuffle: true, prio: true, cfg: func(c *Config) { c.Order = OrderPriority }},
	{name: "batched", colls: 4, iters: 2, runs: 2, shuffle: true, cfg: func(c *Config) { c.BatchedSQERead, c.TaskQueueCap = true, 2 }},
	{name: "always-save", colls: 4, iters: 2, runs: 1, shuffle: true, cfg: func(c *Config) { smallSpin(c); c.AlwaysSaveContext = true }},
	{name: "quit", colls: 4, iters: 3, runs: 1, shuffle: true, idle: 30 * sim.Microsecond, cfg: func(c *Config) {
		smallSpin(c)
		c.QuitPeriod = 3 * sim.Microsecond
	}},
	{name: "kill", colls: 3, iters: 4, runs: 2, shuffle: true, kill: 150 * sim.Microsecond},
	{name: "kill-full-cq", colls: 2, iters: 3, runs: 3, kill: 120 * sim.Microsecond, cfg: func(c *Config) { c.CQSlots = 1 }},
	{name: "destroy-idle", colls: 1, iters: 2, runs: 1, tail: 50 * sim.Microsecond},
	{name: "destroy-after-quit", colls: 1, iters: 2, runs: 1, tail: 300 * sim.Microsecond},
}

// run runs c under the daemon and poller machines or under the blocking
// code they replaced, and returns what it showed and the states the
// machines entered.
func (c oracleCase) run(t *testing.T, blocking bool) (out oracleOutcome, daemonSeen uint32, pollerSeen uint8) {
	if blocking {
		daemonBody, pollerBody = (*RankContext).blockingDaemonBody, (*RankContext).blockingPollerBody
		defer func() { daemonBody, pollerBody = (*RankContext).runDaemon, (*RankContext).runPoller }()
	}
	const n = 4
	cfg := DefaultConfig()
	if c.cfg != nil {
		c.cfg(&cfg)
	}
	sys := newSys(n, cfg)
	if c.kill > 0 {
		sys.Engine.Spawn("killer", func(p *sim.Process) {
			p.Sleep(c.kill)
			sys.KillRank(n - 1)
		})
	}
	orders := rand.New(rand.NewSource(int64(len(c.name))))
	runApp(t, sys, n, func(p *sim.Process, r *RankContext) {
		colls := make([]*Collective, c.colls)
		send, recv := make([]*mem.Buffer, c.colls), make([]*mem.Buffer, c.colls)
		for i := range colls {
			count := 64 << i
			opts := []OpenOption{WithCollID(i + 1)}
			if c.prio {
				opts = append(opts, WithPriority(i))
			}
			var err error
			if colls[i], err = r.Open(prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(n)}, opts...); err != nil {
				t.Errorf("%s: open: %v", c.name, err)
				return
			}
			send[i], recv[i] = mem.NewBuffer(mem.Float32, count), mem.NewBuffer(mem.Float32, count)
			send[i].Fill(float64(r.Rank + i))
			out.Prims = append(out.Prims, 0)
			out.Recv = append(out.Recv, nil)
		}
		execs, first := make([]*prim.Executor, c.colls), len(out.Prims)-c.colls
		for i, coll := range colls {
			execs[i] = r.task(coll.ID()).exec
		}
		defer func() {
			for i, x := range execs {
				out.Prims[first+i], out.Recv[first+i] = x.PrimsExecuted, recv[i].Bytes()
			}
		}()
		order := make([]int, c.colls)
		for i := range order {
			order[i] = i
		}
		for it := 0; it < c.iters; it++ {
			p.Sleep(c.idle)
			if c.shuffle {
				orders.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			for _, i := range order {
				for run := 0; run < c.runs; run++ {
					err := colls[i].LaunchCB(p, send[i], recv[i], func(err error) {
						out.Callbacks = append(out.Callbacks, p.Now())
						if errors.Is(err, ErrRankLost) {
							out.Lost++
						}
					})
					if errors.Is(err, ErrRankLost) {
						out.Lost++
					} else if err != nil {
						t.Errorf("%s: launch: %v", c.name, err)
					}
				}
			}
			r.WaitAll(p)
		}
		p.Sleep(c.tail)
	})
	out.Fingerprint, out.End = sys.Engine.Fingerprint(), sys.Engine.Now()
	for _, r := range sys.ranks {
		out.Stats = append(out.Stats, r.Stats)
		daemonSeen |= r.daemon.seen
		pollerSeen |= r.poller.seen
	}
	return out, daemonSeen, pollerSeen
}

// TestDaemonMatchesBlocking: the daemon and poller machines are the
// blocking code they replaced (blocking_test.go), wait for wait. Every
// program of the corpus (lock-step relaunch; disorder with spin budgets
// small enough to stick; FIFO with a short fetch backoff; priority order;
// batched SQE reads into a two-task queue; a one-slot CQ that a kill's
// abort drain overflows; context saves that are not lazy; a quit period
// short enough to quit, save, restart, rebuild and reload mid-run; kills;
// Destroy to an idle daemon and to none) must dispatch the same (time,
// seq, process) sequence, leave the same RankStats, primitive counts and
// recv bytes, and call back at the same instants with the same errors.
// Together the programs must enter every state of both machines, so a
// state added without a program that reaches it fails here.
func TestDaemonMatchesBlocking(t *testing.T) {
	var daemonSeen uint32
	var pollerSeen uint8
	lost := 0
	for _, c := range oracleCorpus {
		want, _, _ := c.run(t, true)
		got, ds, ps := c.run(t, false)
		daemonSeen, pollerSeen, lost = daemonSeen|ds, pollerSeen|ps, lost+want.Lost
		if !reflect.DeepEqual(got, want) {
			var differ []string
			g, w := reflect.ValueOf(got), reflect.ValueOf(want)
			for i := 0; i < g.NumField(); i++ {
				if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
					differ = append(differ, g.Type().Field(i).Name)
				}
			}
			t.Errorf("%s: the machines and the blocking code they replaced disagree in %v:\n got %+v\nwant %+v", c.name, differ, got.Stats, want.Stats)
		}
	}
	for s := dOff + 1; s < dStates; s++ {
		if daemonSeen&(1<<s) == 0 {
			t.Errorf("no program of the corpus enters daemon state %d", s)
		}
	}
	for s := pState(0); s < pStates; s++ {
		if pollerSeen&(1<<s) == 0 {
			t.Errorf("no program of the corpus enters poller state %d", s)
		}
	}
	if lost == 0 {
		t.Error("no program of the corpus saw a rank loss")
	}
}

// TestDaemonReentryPanics: one daemon machine serves all of a rank's
// kernel instances because stream order runs them one at a time. Two
// instances on two streams are not so ordered; the second to start must
// panic, naming the rank, instead of taking the first one's queue over.
func TestDaemonReentryPanics(t *testing.T) {
	sys := newSys(1, DefaultConfig())
	sys.Engine.Spawn("app", func(p *sim.Process) {
		r := sys.Init(p, 0)
		for i := 0; i < 2; i++ {
			k := r.kernel
			k.Grid = r.daemonKernel()
			r.dev.Launch(p, r.dev.NewStream(), &k)
		}
	})
	err := sys.Engine.Run()
	want := fmt.Sprintf("core: rank 0: daemon kernel %s entered while another instance's run is live", "dfccl.daemon.gpu0")
	if err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("Run = %v, want the second instance's panic %q", err, want)
	}
}
