package fabric

import (
	"fmt"
	"math"
	"slices"

	"dfccl/internal/sim"
	"dfccl/internal/trace"
)

// flow is one in-flight transfer holding capacity on its route's links,
// from the moment it joins the network's active set to the moment it
// leaves. It is part of the Xfer that moves it.
type flow struct {
	route     Route
	remaining float64  // bytes left to move
	cap       float64  // per-flow rate ceiling (the route's Path.Bandwidth)
	rate      float64  // current max-min fair rate, set by recompute
	frozen    bool     // scratch for one water-filling solve
	id        int      // recorder flow ID (0 when recording is off)
	prevRate  float64  // rate before the last solve (rate-change detection)
	job       int      // owning tenant job ID (0 = untagged)
	size      float64  // bytes at the start, the scale of remaining's float residue
	due       sim.Time // completion predicted at rate; MaxInt64 once a solve changed rate
	rerated   sim.Cond // signalled by a solve that changes rate
}

// Xfer is one transfer as a machine that returns its waits instead of
// making them (sim.Stepper): Begin arms it, and whoever runs it makes the
// waits Next asks for, a process by Awaiting it (TransferJob), another
// machine by handing each wait on (the executor's send). Between two waits
// Next does what a transferring process would: price the first sleep; join
// the network's flows and re-solve the rates; at every solve that changes
// its rate, and at its predicted completion, accrue progress and predict
// again; leave and re-solve. A solve that leaves its rate alone leaves its
// prediction standing. The engine takes those turns, so a process runs
// again only once its transfer is over. An Xfer is reusable after Next
// answers false and must stay where it is until then: the network points
// into it, and its wait is on the flow's own condition. Begin panics
// (xfer-begin-unheld) on an Xfer whose flow is still waited on.
type Xfer struct {
	net    *Network
	engine *sim.Engine
	bytes  int
	at     xferState
	flow   flow
}

// xferState is where an Xfer's next turn picks up.
type xferState uint8

const (
	xferStart   xferState = iota // nothing done yet
	xferJoin                     // the latency has passed: join the flows
	xferFlowing                  // a rate change or the predicted completion woke the flow
	xferDone                     // an independently priced transfer has slept its time
)

// Begin arms x to move bytes over route r on n, attributed to tenant job
// ID job, in a simulation driven by e.
func (x *Xfer) Begin(n *Network, e *sim.Engine, r Route, bytes, job int) {
	if x.flow.rerated.Waiters() != 0 {
		panic("fabric: xfer-begin-unheld: Begin on a transfer whose flow is still waited on")
	}
	x.net, x.engine, x.bytes, x.at = n, e, bytes, xferStart
	// Field by field: a flow literal would be built whole and copied in,
	// the route and the unwaited condition with it.
	f := &x.flow
	f.route, f.remaining, f.cap, f.job, f.size = r, float64(bytes), r.Path.Bandwidth, job, float64(bytes)
	f.rate, f.frozen, f.id, f.prevRate, f.due = 0, false, 0, 0, 0
}

// Next is the transfer's next turn (sim.Stepper).
func (x *Xfer) Next() (sim.Wait, bool) {
	n, e, f := x.net, x.engine, &x.flow
	switch x.at {
	case xferStart:
		if x.bytes > 0 {
			if n.jobBytes == nil {
				n.jobBytes = make(map[int]int64)
			}
			n.jobBytes[f.job] += int64(x.bytes)
		}
		if !n.shared || len(f.route.Links) == 0 || x.bytes == 0 {
			x.at = xferDone
			return sim.Wait{D: sim.Duration(f.route.Path.TransferTime(x.bytes))}, true
		}
		x.at = xferJoin
		return sim.Wait{D: sim.Duration(f.route.Path.Latency)}, true
	case xferJoin:
		if n.rec != nil {
			n.flowSeq++
			f.id = n.flowSeq
			n.rec.RecordFlow(trace.FlowEvent{At: e.Now(), ID: f.id, Kind: trace.FlowStart, Bytes: x.bytes, Job: f.job})
		}
		n.advance(e.Now())
		n.join(f)
		n.recompute(e)
		x.at = xferFlowing
	case xferFlowing:
		n.advance(e.Now())
		if e.Now() >= f.due && f.remaining > f.slack() {
			panic(fmt.Sprintf("fabric: flow-due: flow %d has %g B left at its predicted completion %v (%g B/s)",
				f.id, f.remaining, f.due, f.rate))
		}
	case xferDone:
		return sim.Wait{}, false
	}
	if f.remaining > 0 {
		// Wait until the predicted completion at the current rate; a solve
		// that changes the rate signals, and the flow re-predicts at once.
		d := f.eta()
		f.due = e.Now().Add(d)
		return sim.Wait{Cond: &f.rerated, D: d}, true
	}
	n.remove(f)
	n.recompute(e)
	if n.rec != nil {
		n.rec.RecordFlow(trace.FlowEvent{At: e.Now(), ID: f.id, Kind: trace.FlowEnd, Job: f.job})
	}
	return sim.Wait{}, false
}

// Transfer moves bytes over route r, blocking the calling process for
// the transfer's duration. The Path latency is always charged up front.
// Under Unshared networks — or for routes with no shared links, or
// zero-byte sends — the duration is exactly Path.TransferTime(bytes),
// the independent pricing. Otherwise the transfer
// becomes a flow: it serializes at its max-min fair share of every link
// on the route, re-solved each time any flow joins or finishes, so its
// duration depends on concurrent traffic: it completes when the bytes it
// had left at its last rate change run out at that rate. (Even without
// contention the shared pricing rounds serialization up to whole
// nanoseconds, where the independent pricing truncates — durations may
// differ by 1ns.)
func (n *Network) Transfer(p *sim.Process, r Route, bytes int) {
	n.TransferJob(p, r, bytes, 0)
}

// TransferJob is Transfer with the moved bytes attributed to a tenant
// job ID (0 = untagged): the pricing is identical, but the bytes accrue
// to the per-job attribution read back by JobBytes, and — under shared
// networks with recording on — the flow's trace events carry the job.
// It Awaits an Xfer: p is resumed once, when the transfer is over.
func (n *Network) TransferJob(p *sim.Process, r Route, bytes, job int) {
	var x *Xfer
	if k := len(n.spare); k > 0 {
		x, n.spare = n.spare[k-1], n.spare[:k-1]
	} else {
		x = new(Xfer)
	}
	x.Begin(n, p.Engine(), r, bytes, job)
	p.Await(x)
	n.spare = append(n.spare, x)
}

// eta is the time the flow still needs at its current rate.
func (f *flow) eta() sim.Duration {
	return sim.Duration(math.Ceil(f.remaining / f.rate * 1e9))
}

// slack is the most bytes a flow may have left at its predicted
// completion, or be carried past its end (flow-due): what its rate moves in
// one nanosecond, the ceil of its prediction, plus the float residue of
// taking its progress off its size window by window.
func (f *flow) slack() float64 { return (f.rate + f.size) * 1e-9 }

// join adds a flow to the active set and its links to the busy ones.
func (n *Network) join(f *flow) {
	n.flows = append(n.flows, f)
	for _, l := range f.route.Links {
		if l.nflows++; l.nflows == 1 {
			n.busy[l.idx/64] |= 1 << (l.idx % 64)
		}
	}
}

// remove drops a finished flow from the active set. A link it leaves
// without flows leaves the busy ones with nothing allocated.
func (n *Network) remove(f *flow) {
	i := slices.Index(n.flows, f)
	n.flows = slices.Delete(n.flows, i, i+1)
	for _, l := range f.route.Links {
		if l.nflows--; l.nflows == 0 {
			n.busy[l.idx/64] &^= 1 << (l.idx % 64)
			l.alloc, l.saturatedNow = 0, false
		}
	}
}

// advance accrues progress for every active flow from the last
// accounting instant to now at the rates of the last solve, updating the
// busy links' byte/busy/saturated counters in construction order. It must
// run before any change to the flow set (and after every wakeup, before
// remaining is read), so the busy links are those of the last solve. A
// flow carried more than its slack past its end missed a wake (flow-due).
func (n *Network) advance(now sim.Time) {
	prev := n.lastAt
	dt := now.Sub(n.lastAt)
	n.lastAt = now
	if dt <= 0 {
		return
	}
	sec := float64(dt) / 1e9
	for _, f := range n.flows {
		moved := f.rate * sec
		if over := moved - f.remaining; over > 0 {
			if over > f.slack() {
				panic(fmt.Sprintf("fabric: flow-due: flow %d carried %g B past its end at %v (%g B/s): its completion was not its turn",
					f.id, over, now, f.rate))
			}
			moved = f.remaining
		}
		f.remaining -= moved
		for _, l := range f.route.Links {
			l.bytes += moved
		}
	}
	for l := range n.busyLinks {
		l.busy += dt
		if l.saturatedNow {
			l.saturated += dt
			if n.rec != nil {
				// One interval per accounting window; adjacent windows of
				// a continuously saturated link appear as abutting spans
				// on the link's trace track.
				n.rec.RecordSat(trace.SatSpan{Start: prev, End: now, Link: l.Name, Tier: l.Tier.String()})
			}
		}
	}
}

// recompute solves max-min fair rates for the active flows by
// progressive filling: repeatedly find the bottleneck — the link whose
// equal share among its unfrozen flows is smallest — and freeze its
// flows at that share (flows whose own Path.Bandwidth cap binds first
// freeze at their cap). It touches only the busy links, in construction
// order, and the bottleneck is the first of them to reach the least share.
// Iteration is in deterministic slice order, so identical flow sets always
// solve to identical rates. Then, in one pass in join order, it signals
// each flow whose rate changed (its turn re-predicts at once) and records
// the new rate; every other flow keeps its predicted completion.
func (n *Network) recompute(e *sim.Engine) {
	for l := range n.busyLinks {
		l.alloc, l.avail, l.live = 0, l.Capacity, l.nflows
	}
	for _, f := range n.flows {
		f.prevRate = f.rate
		f.rate, f.frozen = 0, false
	}
	unfrozen := len(n.flows)
	for unfrozen > 0 {
		minShare, bottleneck := math.Inf(1), (*Link)(nil)
		for l := range n.busyLinks {
			if l.live > 0 {
				if s := l.avail / float64(l.live); s < minShare {
					minShare, bottleneck = s, l
				}
			}
		}
		capped := false
		for _, f := range n.flows {
			if !f.frozen && f.cap <= minShare {
				n.freeze(f, f.cap)
				unfrozen--
				capped = true
			}
		}
		if capped {
			continue // shares may have grown; re-find the bottleneck
		}
		for _, f := range n.flows {
			if !f.frozen && crosses(f, bottleneck) {
				n.freeze(f, minShare)
				unfrozen--
			}
		}
	}
	for l := range n.busyLinks {
		// What the solve promises, whatever the flow set: every flow
		// frozen at a rate, and no link handing out more than it has.
		if l.live != 0 || l.alloc > l.Capacity*(1+1e-9) {
			panic(fmt.Sprintf("fabric: link %s after recompute: %d flows unfrozen, %.0f of %.0f B/s allocated",
				l.Name, l.live, l.alloc, l.Capacity))
		}
		l.saturatedNow = l.alloc >= l.Capacity*(1-1e-9)
	}
	for _, f := range n.flows {
		if f.rate == f.prevRate {
			continue
		}
		f.due = math.MaxInt64
		f.rerated.Signal(e)
		if n.rec != nil {
			// recompute always runs right after advance(now), so n.lastAt
			// is the solve instant. A flow's first solve (prevRate 0)
			// records its initial allocation.
			n.rec.RecordFlow(trace.FlowEvent{At: n.lastAt, ID: f.id, Kind: trace.FlowRate, Rate: f.rate, Job: f.job})
		}
	}
}

// freeze fixes a flow's rate and releases its claim on residual shares.
func (n *Network) freeze(f *flow, rate float64) {
	if rate < 1 {
		rate = 1 // floor against degenerate float residue; never hit in practice
	}
	f.frozen, f.rate = true, rate
	for _, l := range f.route.Links {
		l.live--
		l.alloc += rate
		l.avail -= rate
		if l.avail < 0 {
			l.avail = 0
		}
	}
}

// crosses reports whether the flow's route uses the link.
func crosses(f *flow, l *Link) bool {
	for _, fl := range f.route.Links {
		if fl == l {
			return true
		}
	}
	return false
}
