// Package workload is the elastic data plane shared by the repo's two
// control planes: internal/chaos (membership re-formation under a
// kill/revive schedule) and internal/cluster (admit / requeue /
// re-place of many tenants). It holds the only implementation of the
// data-carrying training iterations — data-parallel gradient
// AllReduce, MoE token dispatch over AllToAllv with a runtime-gathered
// count matrix, ZeRO-style ReduceScatter + AllGather, and the DP+MoE
// hybrid — and of the member attempt loop that commits them (see
// Attempt).
//
// Iterations are stateless functions of (tenant, membership,
// iteration), so retrying one after an abort is idempotent. All
// payloads are small integers in float64, which makes reductions
// order-independent and bit-exact, and every payload mixes the tenant's
// job ID in, so two tenants never carry the same data and cross-tenant
// leakage cannot cancel out in a fingerprint.
package workload

import (
	"fmt"
	"math"
	"slices"

	"dfccl/internal/core"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
)

// Workload is one member's view of a tenant's training loop. Setup
// opens the attempt's persistent collectives over the membership; Iter
// runs one iteration (launch, wait, verify every element) and returns
// the FNV-1a fingerprint of this member's verified outputs; RefHash
// computes, without any simulation, the fingerprint the membership's
// lead (pos 0) member must produce — the serial fault-free, solo
// reference; Teardown closes whatever Setup opened and is the caller's
// to invoke (a lost rank's registrations are released by its exiting
// poller instead).
type Workload interface {
	Setup(p *sim.Process, rc *core.RankContext, members []int) error
	Iter(p *sim.Process, rc *core.RankContext, members []int, pos, it int) (uint64, error)
	RefHash(members []int, it int) uint64
	Teardown(p *sim.Process)
}

// Tenant is whose iterations a workload runs: every payload, collective
// ID, and open option derives from it.
type Tenant struct {
	// Job is the tenant job ID. A positive job tags its collectives
	// (core.WithJob) and owns the explicit collective-ID block
	// [Job*64, Job*64+64) — well below core.AutoCollIDBase, so
	// concurrent tenants can never collide on an ID, and the core-level
	// job check makes any collision a hard error rather than silent
	// sharing. Job 0 is the untagged single-job tenant: its collective
	// IDs are system-assigned.
	Job int
	// Priority is carried by every collective the tenant opens into the
	// daemons' priority queues.
	Priority int
	// Algo selects the algorithm of the data exchanges (the DP
	// all-reduces, the MoE dispatch, the ZeRO pair).
	Algo prim.Algorithm
	// Layers is the dp/hybrid gradient-tensor count.
	Layers int
}

// New builds one member's instance of the named workload ("dp", "moe",
// "zero", or "hybrid") for a tenant; it validates kind.
func New(kind string, t Tenant) (Workload, error) {
	switch kind {
	case "dp":
		return &dp{t: t}, nil
	case "moe":
		return &moe{t: t}, nil
	case "zero":
		return &zero{t: t}, nil
	case "hybrid":
		return &hybrid{dp: dp{t: t}, moe: moe{t: t}}, nil
	default:
		return nil, fmt.Errorf("workload: job %d has unknown kind %q", t.Job, kind)
	}
}

// Collective-ID slots within a positive job's block: persistent
// collectives use slot k, the per-iteration MoE dispatch — reopened and
// closed every iteration to churn the pool — uses dynSlot, and the MoE
// count gather sits just below it.
const (
	collIDBlock = 64
	dynSlot     = 32
)

// open opens spec for the tenant in the given collective-ID slot.
func (t Tenant) open(rc *core.RankContext, spec prim.Spec, slot int) (*core.Collective, error) {
	if t.Job == 0 {
		return rc.Open(spec, core.WithPriority(t.Priority))
	}
	return rc.Open(spec, core.WithCollID(t.Job*collIDBlock+slot), core.WithJob(t.Job), core.WithPriority(t.Priority))
}

// fingerprint is FNV-1a over the values' IEEE-754 bits (little-endian
// byte order), element order fixed by the caller.
func fingerprint(vals []float64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= bits >> (8 * i) & 0xff
			h *= prime
		}
	}
	return h
}

// exchange is a set of collectives launched together: DP's per-layer
// all-reduces, ZeRO's reduce-scatter + all-gather pair, MoE's count
// gather and its per-iteration dispatch.
type exchange struct {
	ops []op
}

type op struct {
	h          *core.Collective
	send, recv *mem.Buffer
	fut        *core.Future
}

// open adds one collective in the tenant's ID slot, with float64
// buffers of the given lengths.
func (x *exchange) open(rc *core.RankContext, t Tenant, slot int, spec prim.Spec, sendLen, recvLen int) error {
	h, err := t.open(rc, spec, slot)
	if err != nil {
		return err
	}
	x.ops = append(x.ops, op{
		h:    h,
		send: mem.NewBuffer(mem.Float64, sendLen),
		recv: mem.NewBuffer(mem.Float64, recvLen),
	})
	return nil
}

// run launches every collective, waits for all of them — also after a
// failed launch, so close never sees an outstanding run — and returns
// the first error.
func (x *exchange) run(p *sim.Process) error {
	var firstErr error
	launched := 0
	for k := range x.ops {
		o := &x.ops[k]
		if o.fut, firstErr = o.h.Launch(p, o.send, o.recv); firstErr != nil {
			break
		}
		launched++
	}
	for _, o := range x.ops[:launched] {
		if err := o.fut.Wait(p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// verify checks that the receive buffers, read end to end in open
// order, hold exactly want, and returns the fingerprint of the verified
// values.
func (x *exchange) verify(t Tenant, kind string, rank, it int, want []float64) (uint64, error) {
	n := 0
	for _, o := range x.ops {
		n += o.recv.Len()
	}
	if n != len(want) {
		return 0, fmt.Errorf("workload: job %d %s produced %d outputs, want %d (rank %d it %d)", t.Job, kind, n, len(want), rank, it)
	}
	n = 0
	for _, o := range x.ops {
		for i := 0; i < o.recv.Len(); i, n = i+1, n+1 {
			if got := o.recv.Float64At(i); got != want[n] {
				return 0, fmt.Errorf("workload: job %d %s output %d = %v, want %v (rank %d it %d)", t.Job, kind, n, got, want[n], rank, it)
			}
		}
	}
	return fingerprint(want), nil
}

// close closes every collective, keeping the slice for the next open.
func (x *exchange) close(p *sim.Process) (err error) {
	for _, o := range x.ops {
		if cerr := o.h.Close(p); cerr != nil && err == nil {
			err = cerr
		}
	}
	x.ops = x.ops[:0]
	return err
}

// ---- data-parallel gradient AllReduce ----

// grad is rank r's local gradient for element i of layer l at
// iteration it of job j: small integers, so cross-rank sums are exact.
func grad(j, r, l, it, i int) float64 {
	return float64((j*13+r*7+l*5+it*3+i)%9 - 4)
}

func layerCount(l int) int { return 6 + 2*l }

type dp struct {
	t    Tenant
	x    exchange
	want []float64
}

func (w *dp) Setup(p *sim.Process, rc *core.RankContext, members []int) error {
	for l := 0; l < w.t.Layers; l++ {
		count := layerCount(l)
		spec := prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float64, Op: mem.Sum, Ranks: members, Algo: w.t.Algo}
		if err := w.x.open(rc, w.t, l, spec, count, count); err != nil {
			return err
		}
	}
	return nil
}

// outputs returns the reduced gradients every member must hold.
func (w *dp) outputs(members []int, it int) []float64 {
	// Σ layerCount(l) = Layers·(Layers+5).
	w.want = slices.Grow(w.want[:0], w.t.Layers*(w.t.Layers+5))
	for l := 0; l < w.t.Layers; l++ {
		for i := 0; i < layerCount(l); i++ {
			sum := 0.0
			for _, m := range members {
				sum += grad(w.t.Job, m, l, it, i)
			}
			w.want = append(w.want, sum)
		}
	}
	return w.want
}

func (w *dp) Iter(p *sim.Process, rc *core.RankContext, members []int, pos, it int) (uint64, error) {
	rank := members[pos]
	for l, o := range w.x.ops {
		for i := 0; i < o.send.Len(); i++ {
			o.send.SetFloat64(i, grad(w.t.Job, rank, l, it, i))
		}
	}
	if err := w.x.run(p); err != nil {
		return 0, err
	}
	return w.x.verify(w.t, "dp", rank, it, w.outputs(members, it))
}

func (w *dp) RefHash(members []int, it int) uint64 {
	return fingerprint(w.outputs(members, it))
}

func (w *dp) Teardown(p *sim.Process) { w.x.close(p) }

// ---- MoE token dispatch over AllToAllv with runtime count gather ----

// tokens is the number of tokens (at most maxTokens) rank src routes to
// the expert on rank dst at an iteration of job j — the routing
// function every rank evaluates only for its own row; the full matrix
// exists nowhere until the runtime all-gather assembles it.
func tokens(j, src, dst, it int) int {
	return (j*5 + src*3 + dst*7 + it*11) % (maxTokens + 1)
}

const (
	maxTokens = 2
	// elemsPerTok is the per-token payload in float64 elements.
	elemsPerTok = 2
)

// elem is token element k of the (src → dst) block of job j.
func elem(j, src, dst, it, k int) float64 {
	return float64(j*10000 + src*1000 + dst*100 + (it+k)%10)
}

type moe struct {
	t Tenant
	// counts is the persistent routing-count all-gather; dispatch is
	// the ragged AllToAllv opened and closed every iteration — the
	// pool-churn path.
	counts, dispatch exchange
	want             []float64
}

func (w *moe) Setup(p *sim.Process, rc *core.RankContext, members []int) error {
	n := len(members)
	return w.counts.open(rc, w.t, dynSlot-1, prim.Spec{Kind: prim.AllGather, Count: n, Type: mem.Float64, Ranks: members}, n, n*n)
}

// outputs returns the token blocks member pos must receive, by source.
func (w *moe) outputs(members []int, pos, it int) []float64 {
	w.want = slices.Grow(w.want[:0], len(members)*maxTokens*elemsPerTok)
	me := members[pos]
	for _, src := range members {
		for k := 0; k < tokens(w.t.Job, src, me, it)*elemsPerTok; k++ {
			w.want = append(w.want, elem(w.t.Job, src, me, it, k))
		}
	}
	return w.want
}

func (w *moe) Iter(p *sim.Process, rc *core.RankContext, members []int, pos, it int) (uint64, error) {
	n := len(members)
	rank := members[pos]
	// Phase 1: all-gather the routing count matrix. Each member
	// contributes only its own row; after the gather every member holds
	// the full matrix and can size the ragged dispatch.
	gather := w.counts.ops[0]
	for j := 0; j < n; j++ {
		gather.send.SetFloat64(j, float64(tokens(w.t.Job, rank, members[j], it)))
	}
	if err := w.counts.run(p); err != nil {
		return 0, err
	}
	// The rows share one backing array. The matrix is fresh per
	// iteration: the dispatch group's spec keeps it.
	counts, cells := make([][]int, n), make([]int, n*n)
	for i := 0; i < n; i++ {
		counts[i] = cells[i*n : (i+1)*n : (i+1)*n]
		for j := 0; j < n; j++ {
			toks := int(gather.recv.Float64At(i*n + j))
			if want := tokens(w.t.Job, members[i], members[j], it); toks != want {
				return 0, fmt.Errorf("workload: job %d moe gathered count[%d][%d] = %d, want %d (members %v it %d)", w.t.Job, i, j, toks, want, members, it)
			}
			counts[i][j] = toks * elemsPerTok
		}
	}
	// Phase 2: ragged dispatch sized by the gathered matrix.
	spec := prim.Spec{Kind: prim.AllToAllv, Type: mem.Float64, Ranks: members, Counts: counts, ChunkElems: 4, Algo: w.t.Algo}
	sendCount, recvCount := prim.BufferCountsFor(spec, pos)
	if err := w.dispatch.open(rc, w.t, dynSlot, spec, sendCount, recvCount); err != nil {
		return 0, err
	}
	send, off := w.dispatch.ops[0].send, 0
	for j := 0; j < n; j++ {
		for k := 0; k < counts[pos][j]; k++ {
			send.SetFloat64(off+k, elem(w.t.Job, rank, members[j], it, k))
		}
		off += counts[pos][j]
	}
	if err := w.dispatch.run(p); err != nil {
		w.dispatch.close(p)
		return 0, err
	}
	h, err := w.dispatch.verify(w.t, "moe", rank, it, w.outputs(members, pos, it))
	if err != nil {
		return 0, err
	}
	return h, w.dispatch.close(p)
}

func (w *moe) RefHash(members []int, it int) uint64 {
	return fingerprint(w.outputs(members, 0, it))
}

func (w *moe) Teardown(p *sim.Process) { w.counts.close(p) }

// ---- ZeRO-style sharded exchange: ReduceScatter + AllGather ----

// shardElems is the per-member parameter shard size.
const shardElems = 3

// zGrad is rank r's local gradient for element i of job j's full
// vector.
func zGrad(j, r, it, i int) float64 { return float64((j*17+r*5+it*3+i)%7 - 3) }

// zShard is the deterministic shard value rank r contributes to job
// j's parameter all-gather.
func zShard(j, r, it, i int) float64 { return float64((j*19+r*11+it*2+i)%13 - 6) }

type zero struct {
	t    Tenant
	x    exchange // [0] gradient reduce-scatter, [1] parameter all-gather
	want []float64
}

func (w *zero) Setup(p *sim.Process, rc *core.RankContext, members []int) error {
	full := shardElems * len(members)
	rs := prim.Spec{Kind: prim.ReduceScatter, Count: full, Type: mem.Float64, Op: mem.Sum, Ranks: members, Algo: w.t.Algo}
	if err := w.x.open(rc, w.t, 0, rs, full, shardElems); err != nil {
		return err
	}
	ag := prim.Spec{Kind: prim.AllGather, Count: shardElems, Type: mem.Float64, Ranks: members, Algo: w.t.Algo}
	return w.x.open(rc, w.t, 1, ag, shardElems, full)
}

// outputs returns member pos's reduced gradient shard, then the
// gathered parameter shards of every member.
func (w *zero) outputs(members []int, pos, it int) []float64 {
	w.want = slices.Grow(w.want[:0], shardElems*(1+len(members)))
	for i := 0; i < shardElems; i++ {
		sum := 0.0
		for _, m := range members {
			sum += zGrad(w.t.Job, m, it, pos*shardElems+i)
		}
		w.want = append(w.want, sum)
	}
	for _, m := range members {
		for i := 0; i < shardElems; i++ {
			w.want = append(w.want, zShard(w.t.Job, m, it, i))
		}
	}
	return w.want
}

func (w *zero) Iter(p *sim.Process, rc *core.RankContext, members []int, pos, it int) (uint64, error) {
	rank := members[pos]
	grads, shard := w.x.ops[0].send, w.x.ops[1].send
	for i := 0; i < grads.Len(); i++ {
		grads.SetFloat64(i, zGrad(w.t.Job, rank, it, i))
	}
	for i := 0; i < shardElems; i++ {
		shard.SetFloat64(i, zShard(w.t.Job, rank, it, i))
	}
	if err := w.x.run(p); err != nil {
		return 0, err
	}
	return w.x.verify(w.t, "zero", rank, it, w.outputs(members, pos, it))
}

func (w *zero) RefHash(members []int, it int) uint64 {
	return fingerprint(w.outputs(members, 0, it))
}

func (w *zero) Teardown(p *sim.Process) { w.x.close(p) }

// ---- hybrid: DP gradient all-reduce + MoE dispatch per iteration ----

// hybrid composes the DP all-reduce layers with the MoE runtime count
// gather and ragged dispatch in one iteration — the mixed (persistent +
// dynamic) collective footprint of a real hybrid-parallel job. The two
// halves use disjoint collective-ID slots, so they never collide.
type hybrid struct {
	dp  dp
	moe moe
}

func (w *hybrid) Setup(p *sim.Process, rc *core.RankContext, members []int) error {
	if err := w.dp.Setup(p, rc, members); err != nil {
		return err
	}
	return w.moe.Setup(p, rc, members)
}

func (w *hybrid) Iter(p *sim.Process, rc *core.RankContext, members []int, pos, it int) (uint64, error) {
	hd, err := w.dp.Iter(p, rc, members, pos, it)
	if err != nil {
		return 0, err
	}
	hm, err := w.moe.Iter(p, rc, members, pos, it)
	if err != nil {
		return 0, err
	}
	return hd ^ hm, nil
}

func (w *hybrid) RefHash(members []int, it int) uint64 {
	return w.dp.RefHash(members, it) ^ w.moe.RefHash(members, it)
}

func (w *hybrid) Teardown(p *sim.Process) {
	w.moe.Teardown(p)
	w.dp.Teardown(p)
}
