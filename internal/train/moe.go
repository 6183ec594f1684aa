package train

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"dfccl/internal/mem"
	"dfccl/internal/orch"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// MoE per-token compute costs (reference GPU).
const (
	// RouterTokenTime is the gating-network cost per local token.
	RouterTokenTime = 1 * sim.Microsecond
	// ExpertTokenTime is the expert FFN cost per routed token; a
	// skew-overloaded expert therefore straggles, which is exactly the
	// launch-timing divergence DFCCL's gang scheduling must absorb.
	ExpertTokenTime = 5 * sim.Microsecond
)

// MoEConfig configures Mixture-of-Experts expert-parallel training:
// one expert per rank, top-k routing with a rotating hot expert, token
// dispatch and combine over AllToAllv (or capacity-padded AllToAll),
// and a data-parallel AllReduce of the non-expert (shared) gradients.
type MoEConfig struct {
	// Ranks is the expert-parallel world size; expert e lives on rank e.
	Ranks int
	// TokensPerRank is each rank's tokens per iteration.
	TokensPerRank int
	// ElemsPerToken is the model dimension of one token.
	ElemsPerToken int
	// TopK is the number of experts each token is routed to (≥1).
	TopK int
	// Iterations is the number of training iterations.
	Iterations int
	// DenseGradElems sizes the shared (non-expert) gradient all-reduce.
	DenseGradElems int
	// Disorder staggers each rank's {dispatch, dense} launch order by
	// rank parity — the cross-rank disorder that deadlocks the
	// single-stream NCCL baseline and that DFCCL absorbs.
	Disorder bool
	// DynamicGroups opens the dispatch/combine collectives and the
	// overloaded-expert subgroup fresh every iteration and closes them
	// after — MoE's group churn, the load on the communicator pool.
	DynamicGroups bool
	// PaddedAllToAll dispatches over the fixed-capacity AllToAll: every
	// (source, expert) block is padded to the worst-case token count, so
	// bandwidth is wasted exactly where routing is skewed. It is the
	// reference layout the default AllToAllv path is verified against
	// (identical combined outputs, strictly fewer bytes moved). The
	// default (false) sends exactly the routed token counts per expert
	// over AllToAllv; because the count matrix changes with the routing
	// every iteration, that path opens and closes the dispatch/combine
	// collectives each iteration even without DynamicGroups.
	PaddedAllToAll bool
}

// moeTokenVal is the deterministic element value of token t of rank r
// at iteration it — small positive integers, so every expert transform
// and combine sum is exact in floating point and padding (zero) is
// distinguishable from data.
func moeTokenVal(r, t, it, elem int) float64 {
	return float64(1 + (r*31+t*7+it*13+elem*3)%50)
}

// moeExpertScale is expert e's (linear) transform: x -> (e+2)·x.
func moeExpertScale(e int) float64 { return float64(e + 2) }

// hotExpert returns the iteration's skew-overloaded expert.
func (c MoEConfig) hotExpert(it int) int { return it % c.Ranks }

// route returns the TopK expert choices of token t on rank r: a
// skewed primary (every third token goes to the iteration's hot
// expert) plus its TopK-1 successors.
func (c MoEConfig) route(r, t, it int) []int {
	primary := (r + t) % c.Ranks
	if (t+it)%3 == 0 {
		primary = c.hotExpert(it)
	}
	out := make([]int, c.TopK)
	for j := range out {
		out[j] = (primary + j) % c.Ranks
	}
	return out
}

// routedTokens returns the iteration's routing matrix: m[src][dst] is
// the number of token copies rank src routes to expert dst. The router
// is a pure function of (rank, token, iteration), so every rank
// computes the identical global matrix without communication — the
// all-gather of counts a real MoE layer performs before an uneven
// dispatch.
func (c MoEConfig) routedTokens(it int) [][]int {
	m := make([][]int, c.Ranks)
	for src := range m {
		m[src] = make([]int, c.Ranks)
		for t := 0; t < c.TokensPerRank; t++ {
			for _, e := range c.route(src, t, it) {
				m[src][e]++
			}
		}
	}
	return m
}

// scaleMatrix multiplies every entry of a token matrix by f (tokens →
// elements).
func scaleMatrix(m [][]int, f int) [][]int {
	out := make([][]int, len(m))
	for i, row := range m {
		out[i] = make([]int, len(row))
		for j, v := range row {
			out[i][j] = v * f
		}
	}
	return out
}

// capacitySlots is the per-(source, expert) block capacity in tokens of
// the padded layout. route returns TopK distinct experts per token, so
// one expert receives at most one copy of each of a rank's tokens: the
// worst case of every local token picking this expert among its
// choices.
func (c MoEConfig) capacitySlots() int { return c.TokensPerRank }

func (c MoEConfig) validate(cluster *topo.Cluster) error {
	if c.Ranks < 1 || c.TokensPerRank < 1 || c.ElemsPerToken < 1 || c.Iterations < 1 {
		return fmt.Errorf("train: bad MoE config %+v", c)
	}
	if c.TopK < 1 || c.TopK > c.Ranks {
		return fmt.Errorf("train: MoE TopK %d out of range for %d experts", c.TopK, c.Ranks)
	}
	if c.Ranks > cluster.Size() {
		return fmt.Errorf("train: MoE config needs %d GPUs, cluster has %d", c.Ranks, cluster.Size())
	}
	if c.DenseGradElems < 1 {
		return fmt.Errorf("train: MoE DenseGradElems must be positive")
	}
	return nil
}

// MoE collective-ID space (kept below core.AutoCollIDBase).
const (
	moeCollDense    = 900_000 // persistent dense-grad all-reduce
	moeCollCounts   = 900_001 // persistent count-matrix all-gather
	moeCollBase     = 910_000 // + iteration*moeCollStride + slot
	moeCollStride   = 8
	moeSlotDispatch = 0
	moeSlotCombine  = 1
	moeSlotSubgroup = 2
)

// RunMoE trains a Mixture-of-Experts layer under expert parallelism:
// per iteration, each rank routes its tokens (top-k, skewed towards a
// rotating hot expert), dispatches them to their experts — over
// AllToAllv with exactly the routed per-expert token counts, or over
// capacity-padded AllToAll with PaddedAllToAll — applies the local
// expert, combines the results back over the reverse exchange,
// all-reduces the shared dense gradient across all ranks, and — with
// DynamicGroups — additionally churns an overloaded-expert subgroup
// all-reduce through the communicator pool.
//
// All collectives carry real data and RunMoE verifies the combined
// token outputs, the dense gradient sum, and the subgroup sum exactly
// against a serial reference; any mismatch is returned as an error.
// The Result additionally reports the total dispatch/combine payload
// (A2ABytes) and a bit-exact fingerprint of the combined outputs
// (OutputHash), so the AllToAllv and padded layouts can be compared:
// identical hashes, strictly fewer bytes for AllToAllv under skew.
func RunMoE(e *sim.Engine, cluster *topo.Cluster, b orch.Backend, cfg MoEConfig) (*Result, error) {
	if err := cfg.validate(cluster); err != nil {
		return nil, err
	}
	n := cfg.Ranks
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	// outs collects each rank's combined token outputs in iteration/
	// token/element order; hashed after the run in rank order.
	outs := make([][]float64, n)
	for r := range outs {
		outs[r] = make([]float64, 0, cfg.Iterations*cfg.TokensPerRank*cfg.ElemsPerToken)
	}

	bar := sim.NewBarrier("train.barrier", n)
	res, err := runRanks(e, b, "train.moe", n, n*cfg.TokensPerRank*cfg.Iterations, func(p *sim.Process, rank int, res *Result) error {
		return runMoERank(p, b, cfg, rank, ranks, bar, res, outs)
	})
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	var word [8]byte
	for r := 0; r < n; r++ {
		for _, v := range outs[r] {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	res.OutputHash = h.Sum64()
	return res, nil
}

// moeLayout is one iteration's dispatch/combine buffer geometry on one
// rank. sendBase[e] is the element offset of the expert-e block in the
// dispatch send buffer (equally: in the combine recv buffer, which the
// reverse exchange lays out identically); recvBase[src] is the offset
// of the origin-src block in the dispatch recv buffer (equally: the
// combine send buffer). In the padded layout both strides are the
// fixed block capacity; in the ragged layout they are prefix sums of
// the iteration's routing matrix row (column, respectively).
type moeLayout struct {
	sendBase, recvBase   []int
	sendElems, recvElems int
}

func moeLayoutFor(cfg MoEConfig, rank int, tokCnt [][]int) moeLayout {
	n := cfg.Ranks
	ept := cfg.ElemsPerToken
	l := moeLayout{sendBase: make([]int, n), recvBase: make([]int, n)}
	if cfg.PaddedAllToAll {
		blockElems := cfg.capacitySlots() * ept
		for i := 0; i < n; i++ {
			l.sendBase[i] = i * blockElems
			l.recvBase[i] = i * blockElems
		}
		l.sendElems = n * blockElems
		l.recvElems = n * blockElems
		return l
	}
	off := 0
	for e := 0; e < n; e++ {
		l.sendBase[e] = off
		off += tokCnt[rank][e] * ept
	}
	l.sendElems = off
	off = 0
	for src := 0; src < n; src++ {
		l.recvBase[src] = off
		off += tokCnt[src][rank] * ept
	}
	l.recvElems = off
	return l
}

func runMoERank(p *sim.Process, b orch.Backend, cfg MoEConfig, rank int, ranks []int, bar *sim.Barrier, res *Result, outs [][]float64) error {
	n := cfg.Ranks
	ept := cfg.ElemsPerToken
	blockElems := cfg.capacitySlots() * ept

	// Persistent dense-gradient all-reduce over all ranks.
	denseSend := mem.NewBuffer(mem.Float64, cfg.DenseGradElems)
	denseRecv := mem.NewBuffer(mem.Float64, cfg.DenseGradElems)
	denseSpec := prim.Spec{Kind: prim.AllReduce, Count: cfg.DenseGradElems, Type: mem.Float64, Op: mem.Sum, Ranks: ranks}
	if err := b.Register(p, rank, moeCollDense, denseSpec, 0, denseSend, denseRecv); err != nil {
		return err
	}

	// Persistent count-matrix all-gather: each rank can compute only its
	// own routing row locally, so the N×N matrix the ragged dispatch
	// layout needs is assembled at runtime by gathering the rows — the
	// communication a real MoE layer performs before an uneven exchange,
	// and what lets routing survive membership churn (a re-formed group
	// just gathers rows over the new rank set). Counts are small
	// integers, carried exactly in Float64 on every backend.
	countsSend := mem.NewBuffer(mem.Float64, n)
	countsRecv := mem.NewBuffer(mem.Float64, n*n)
	countsSpec := prim.Spec{Kind: prim.AllGather, Count: n, Type: mem.Float64, Ranks: ranks}
	if err := b.Register(p, rank, moeCollCounts, countsSpec, 0, countsSend, countsRecv); err != nil {
		return err
	}

	// Padded-mode buffers are capacity-sized once; the ragged path
	// allocates per iteration because the routed counts change.
	var dispatchSend, dispatchRecv, combineSend, combineRecv *mem.Buffer
	if cfg.PaddedAllToAll {
		dispatchSend = mem.NewBuffer(mem.Float64, blockElems*n)
		dispatchRecv = mem.NewBuffer(mem.Float64, blockElems*n)
		combineSend = mem.NewBuffer(mem.Float64, blockElems*n)
		combineRecv = mem.NewBuffer(mem.Float64, blockElems*n)
	}
	padSpec := prim.Spec{Kind: prim.AllToAll, Count: blockElems, Type: mem.Float64, Ranks: ranks}

	dispatchID := func(it int) int { return moeCollBase + it*moeCollStride + moeSlotDispatch }
	combineID := func(it int) int { return moeCollBase + it*moeCollStride + moeSlotCombine }
	// Padded static groups: register dispatch/combine once (iteration 0
	// IDs). The ragged path always registers per iteration — the count
	// matrix is part of the spec.
	perIter := cfg.DynamicGroups || !cfg.PaddedAllToAll
	if cfg.PaddedAllToAll && !cfg.DynamicGroups {
		if err := b.Register(p, rank, dispatchID(0), padSpec, 0, dispatchSend, dispatchRecv); err != nil {
			return err
		}
		if err := b.Register(p, rank, combineID(0), padSpec, 0, combineSend, combineRecv); err != nil {
			return err
		}
	}

	// slotTok[e][s] is the local token a dispatched slot carries.
	slotTok := make([][]int, n)
	for e := range slotTok {
		slotTok[e] = make([]int, cfg.TokensPerRank)
	}
	slotUsed := make([]int, n)

	for it := 0; it < cfg.Iterations; it++ {
		start := p.Now()
		// Gather the routing matrix: contribute the local row, receive
		// every rank's. Launched uniformly on all ranks before any
		// disorder point, so single-stream launch-order expectations are
		// unchanged.
		for e := 0; e < n; e++ {
			countsSend.SetFloat64(e, 0)
		}
		for t := 0; t < cfg.TokensPerRank; t++ {
			for _, e := range cfg.route(rank, t, it) {
				countsSend.SetFloat64(e, countsSend.Float64At(e)+1)
			}
		}
		if err := b.Launch(p, rank, moeCollCounts); err != nil {
			return err
		}
		b.Wait(p, rank, moeCollCounts)
		tokCnt := make([][]int, n)
		for src := 0; src < n; src++ {
			tokCnt[src] = make([]int, n)
			for e := 0; e < n; e++ {
				tokCnt[src][e] = int(countsRecv.Float64At(src*n + e))
			}
		}
		// The router is pure, so the gathered matrix must equal the
		// reference computation — a live end-to-end check that the
		// count exchange carried real data.
		for src, refRow := range cfg.routedTokens(it) {
			for e, want := range refRow {
				if tokCnt[src][e] != want {
					return fmt.Errorf("train: moe rank %d iter %d gathered count[%d][%d] = %d, want %d",
						rank, it, src, e, tokCnt[src][e], want)
				}
			}
		}
		layout := moeLayoutFor(cfg, rank, tokCnt)
		dID, cID := dispatchID(0), combineID(0)
		if perIter {
			dID, cID = dispatchID(it), combineID(it)
			dSpec, cSpec := padSpec, padSpec
			if !cfg.PaddedAllToAll {
				// Ragged buffers: row/column sums of this iteration's
				// element-count matrix. The combine exchange reverses the
				// dispatch, so its count matrix is the transpose — which
				// makes the combine send layout equal the dispatch recv
				// layout and vice versa.
				dispatchSend = mem.NewBuffer(mem.Float64, layout.sendElems)
				dispatchRecv = mem.NewBuffer(mem.Float64, layout.recvElems)
				combineSend = mem.NewBuffer(mem.Float64, layout.recvElems)
				combineRecv = mem.NewBuffer(mem.Float64, layout.sendElems)
				elemCnt := scaleMatrix(tokCnt, ept)
				dSpec = prim.Spec{Kind: prim.AllToAllv, Type: mem.Float64, Ranks: ranks, Counts: elemCnt}
				cSpec = prim.Spec{Kind: prim.AllToAllv, Type: mem.Float64, Ranks: ranks, Counts: transpose(elemCnt)}
			}
			if err := b.Register(p, rank, dID, dSpec, 0, dispatchSend, dispatchRecv); err != nil {
				return err
			}
			if err := b.Register(p, rank, cID, cSpec, 0, combineSend, combineRecv); err != nil {
				return err
			}
		}
		// Payload accounting, measured from the live buffers this
		// iteration's exchanges actually carry (not recomputed from the
		// routing): the padded layout launches n full-capacity blocks
		// per exchange regardless of skew, the ragged layout exactly
		// the routed elements. Rank processes are cooperatively
		// scheduled, so the shared accumulation is race-free.
		res.A2ABytes += int64((dispatchSend.Len() + combineSend.Len()) * mem.Float64.Size())

		// Router: gate every token, then pack token copies into the
		// per-expert dispatch blocks in token order (the ragged layout
		// has no unused slots; the padded layout zero-fills the rest).
		p.Sleep(sim.Duration(cfg.TokensPerRank) * RouterTokenTime)
		if cfg.PaddedAllToAll {
			dispatchSend.Fill(0)
		}
		for e := range slotUsed {
			slotUsed[e] = 0
		}
		for t := 0; t < cfg.TokensPerRank; t++ {
			for _, e := range cfg.route(rank, t, it) {
				s := slotUsed[e]
				slotUsed[e]++
				slotTok[e][s] = t
				off := layout.sendBase[e] + s*ept
				for i := 0; i < ept; i++ {
					dispatchSend.SetFloat64(off+i, moeTokenVal(rank, t, it, i))
				}
			}
		}
		// Shared-parameter backward "computes" the dense gradient.
		for i := 0; i < cfg.DenseGradElems; i++ {
			denseSend.SetFloat64(i, float64(rank+1+it))
		}

		// Dispatch and dense gradient are both ready here; with
		// Disorder, rank parity flips their launch order — harmless
		// under DFCCL, fatal for single-stream NCCL.
		launches := []int{dID, moeCollDense}
		if cfg.Disorder && rank%2 == 1 {
			launches = []int{moeCollDense, dID}
		}
		for _, id := range launches {
			if err := b.Launch(p, rank, id); err != nil {
				return err
			}
		}
		b.Wait(p, rank, dID)

		// Expert compute: this rank's expert transforms every routed
		// token it received (tokCnt tells it exactly how many from each
		// source); compute time scales with actual load, so the
		// skew-overloaded expert straggles.
		received := 0
		for src := 0; src < n; src++ {
			for s := 0; s < tokCnt[src][rank]; s++ {
				off := layout.recvBase[src] + s*ept
				received++
				for i := 0; i < ept; i++ {
					combineSend.SetFloat64(off+i, moeExpertScale(rank)*dispatchRecv.Float64At(off+i))
				}
			}
		}
		p.Sleep(sim.Duration(received) * ExpertTokenTime)

		if err := b.Launch(p, rank, cID); err != nil {
			return err
		}
		b.Wait(p, rank, cID)

		// Combine: sum the top-k expert outputs per token — in route
		// order, so the floating-point addition order (and therefore
		// the output bits) is independent of the dispatch layout — and
		// verify against the serial reference.
		for t := 0; t < cfg.TokensPerRank; t++ {
			experts := cfg.route(rank, t, it)
			for i := 0; i < ept; i++ {
				var want float64
				for _, e := range experts {
					want += moeExpertScale(e) * moeTokenVal(rank, t, it, i)
				}
				var got float64
				for _, e := range experts {
					s := slotOf(slotTok[e], slotUsed[e], t)
					got += combineRecv.Float64At(layout.sendBase[e] + s*ept + i)
				}
				if got != want {
					return fmt.Errorf("train: moe rank %d iter %d token %d elem %d = %v, want %v", rank, it, t, i, got, want)
				}
				outs[rank] = append(outs[rank], got)
			}
		}

		// Overloaded-expert subgroup: the hot expert and its neighbor
		// reconcile load statistics over a dynamic 2-rank group.
		if cfg.DynamicGroups && n >= 2 {
			hot := cfg.hotExpert(it)
			pair := []int{hot, (hot + 1) % n}
			if rank == pair[0] || rank == pair[1] {
				subID := moeCollBase + it*moeCollStride + moeSlotSubgroup
				subSpec := prim.Spec{Kind: prim.AllReduce, Count: 16, Type: mem.Float64, Op: mem.Sum, Ranks: pair}
				send := mem.NewBuffer(mem.Float64, 16)
				recv := mem.NewBuffer(mem.Float64, 16)
				send.Fill(float64(rank + 1 + it))
				if err := b.Register(p, rank, subID, subSpec, 0, send, recv); err != nil {
					return err
				}
				if err := b.Launch(p, rank, subID); err != nil {
					return err
				}
				b.Wait(p, rank, subID)
				want := float64(pair[0]+1+it) + float64(pair[1]+1+it)
				if got := recv.Float64At(0); got != want {
					return fmt.Errorf("train: moe rank %d iter %d subgroup sum = %v, want %v", rank, it, got, want)
				}
				if err := b.Deregister(p, rank, subID); err != nil {
					return err
				}
			}
		}

		// Drain the dense all-reduce and verify the gradient sum.
		b.WaitAll(p, rank)
		wantDense := float64(n*(n+1)/2 + n*it)
		if got := denseRecv.Float64At(cfg.DenseGradElems - 1); got != wantDense {
			return fmt.Errorf("train: moe rank %d iter %d dense grad = %v, want %v", rank, it, got, wantDense)
		}
		p.Sleep(OptimizerTime)

		if perIter {
			if err := b.Deregister(p, rank, dID); err != nil {
				return err
			}
			if err := b.Deregister(p, rank, cID); err != nil {
				return err
			}
			// Every rank must finish closing before the next iteration
			// opens, so released communicators are reusable.
			bar.Wait(p)
		}
		if rank == 0 {
			res.IterTimes.Add(float64(p.Now().Sub(start)) / float64(sim.Second))
		}
	}
	b.Teardown(p, rank)
	return nil
}

// transpose returns the matrix transpose (the combine exchange's count
// matrix is the dispatch matrix transposed).
func transpose(m [][]int) [][]int {
	n := len(m)
	out := make([][]int, n)
	for i := range out {
		out[i] = make([]int, n)
		for j := range out[i] {
			out[i][j] = m[j][i]
		}
	}
	return out
}

// slotOf finds the dispatch slot that carried token t (slots are
// filled in token order, so linear scan over the used prefix).
func slotOf(slotTok []int, used int, t int) int {
	for s := 0; s < used; s++ {
		if slotTok[s] == t {
			return s
		}
	}
	panic(fmt.Sprintf("train: token %d not dispatched", t))
}
