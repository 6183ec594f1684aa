package dfccl_test

import (
	"fmt"
	"math/rand"

	"dfccl"
)

// check stands in for error handling in the examples: an Example has no
// *testing.T, and a panic fails it. A panic inside a simulated process
// surfaces as the error lib.Run returns.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Quickstart: open one all-reduce handle on eight simulated GPUs,
// launch it, await the future, and verify the result — the DFCCL
// equivalent of an NCCL hello-world.
func Example() {
	const (
		nGPUs = 8
		count = 1 << 20 // 1M floats = 4 MB
	)
	lib := dfccl.New(dfccl.Server3090(nGPUs))
	lib.SetTimeLimit(10 * dfccl.Second)
	ranks := make([]int, nGPUs)
	for i := range ranks {
		ranks[i] = i
	}
	results := make([]*dfccl.Buffer, nGPUs)
	coreExec := make([]dfccl.Duration, nGPUs)

	for rank := range nGPUs {
		lib.Go(fmt.Sprintf("rank%d", rank), func(p *dfccl.Process) {
			// One context per GPU (dfcclInit).
			ctx := lib.Init(p, rank)
			// Open registers the collective once and returns a typed
			// handle; the system assigns a collective ID that matches
			// across ranks opening the same spec.
			coll, err := ctx.Open(dfccl.AllReduce(count, dfccl.Float32, dfccl.Sum, ranks...))
			check(err)
			send := dfccl.NewBuffer(dfccl.Float32, count)
			recv := dfccl.NewBuffer(dfccl.Float32, count)
			send.Fill(float64(rank + 1))
			results[rank] = recv
			// Launch is asynchronous; the future resolves when the
			// daemon kernel completes the collective and carries the
			// run's core-execution time.
			fut, err := coll.Launch(p, send, recv)
			check(err)
			check(fut.Wait(p))
			coreExec[rank] = fut.CoreExecTime()
			// Close unregisters the collective and returns its
			// communicator to the pool; Destroy tears down the context.
			check(coll.Close(p))
			ctx.Destroy(p)
		})
	}
	check(lib.Run())

	want := float64(nGPUs * (nGPUs + 1) / 2) // 1+2+...+8
	for rank, r := range results {
		if got := r.Float64At(0); got != want {
			panic(fmt.Sprintf("rank %d: got %v, want %v", rank, got, want))
		}
	}
	fmt.Printf("all-reduce of %d floats across %d GPUs completed in %v of virtual time\n",
		count, nGPUs, lib.Now())
	fmt.Printf("every rank holds the correct sum %v (rank0 core-exec time %v)\n",
		want, coreExec[0])
	// Output:
	// all-reduce of 1048576 floats across 8 GPUs completed in 1.304ms of virtual time
	// every rank holds the correct sum 36 (rank0 core-exec time 1.045ms)
}

// Data-parallel training loop: per-layer gradient all-reduces are
// launched asynchronously as the backward pass produces them, with
// higher priority for later-arriving (shallower) gradients so
// communication overlaps computation — the paper's practical priority
// scheme (Sec. 4.3). No CPU orchestration of launch order is needed.
// The all-reduces are timing-only: the loop measures time and never
// reads the gradients, so it launches without buffers.
func ExampleWithPriority() {
	const (
		nGPUs      = 8
		nLayers    = 24
		gradElems  = 400_000 // ≈1.6MB per layer
		iterations = 5
		batch      = 64
		// Per-layer backward compute per iteration.
		bwdPerLayer = 2 * dfccl.Millisecond
		fwdTotal    = 25 * dfccl.Millisecond
	)
	cfg := dfccl.DefaultConfig()
	cfg.Order = dfccl.OrderPriority
	lib := dfccl.NewWithConfig(dfccl.Server3090(nGPUs), cfg)
	lib.SetTimeLimit(10 * dfccl.Second)
	ranks := make([]int, nGPUs)
	for i := range ranks {
		ranks[i] = i
	}
	for rank := range nGPUs {
		lib.Go(fmt.Sprintf("trainer%d", rank), func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			colls := make([]*dfccl.Collective, nLayers)
			for l := range colls {
				// Shallower layers (produced last in backward, needed
				// first in the next forward) get higher priority.
				c, err := ctx.Open(
					dfccl.AllReduce(gradElems, dfccl.Float32, dfccl.Sum, ranks...).Timing(),
					dfccl.WithPriority(nLayers-l))
				check(err)
				colls[l] = c
			}
			for range iterations {
				p.Sleep(fwdTotal) // forward pass
				futs := make([]*dfccl.Future, 0, nLayers)
				for l := nLayers - 1; l >= 0; l-- {
					p.Sleep(bwdPerLayer) // backward of layer l
					// Gradient ready: launch its all-reduce immediately;
					// the daemon kernel overlaps it with remaining
					// backward compute.
					fut, err := colls[l].Launch(p, nil, nil)
					check(err)
					futs = append(futs, fut)
				}
				for _, fut := range futs { // all gradients reduced
					check(fut.Wait(p))
				}
				p.Sleep(2 * dfccl.Millisecond) // optimizer step
			}
			for _, c := range colls {
				check(c.Close(p))
			}
			ctx.Destroy(p)
		})
	}
	check(lib.Run())
	elapsed := lib.Now()
	samples := nGPUs * batch * iterations
	fmt.Printf("trained %d iterations (%d samples) in %v of virtual time\n", iterations, samples, elapsed)
	fmt.Printf("throughput: %.1f samples/s\n", float64(samples)/(float64(elapsed)/float64(dfccl.Second)))
	// Output:
	// trained 5 iterations (2560 samples) in 378.005ms of virtual time
	// throughput: 6772.4 samples/s
}

// Dynamic overlapping groups: the Pathways-style irregular scenario
// that motivates DFCCL (Sec. 2.5). GPUs belong to several overlapping
// groups, invoke each group's collectives in different orders, and new
// collectives are opened — and closed — dynamically at runtime. Manual
// collective orchestration is impractical here; DFCCL needs none.
//
// Each iteration is a Batch: submit every group's collective in this
// rank's (random) order and await one joined future. Closing handles
// returns communicators to the pool, so open/close churn over the same
// rank sets does not grow the deployment's communicator count.
func ExampleBatch() {
	const nGPUs = 8
	// groups[id] is the rank set of collective id.
	groups := [][]int{
		1: {0, 1, 2},
		2: {1, 2, 3, 4},
		3: {4, 5, 6, 7},
		4: {0, 3, 5, 7},
		5: {0, 1, 2, 3, 4, 5, 6, 7},
	}
	// A collective opened later, mid-run, and closed when its group
	// dissolves.
	lateGroup := []int{2, 4, 6}

	lib := dfccl.New(dfccl.Server3090(nGPUs))
	lib.SetTimeLimit(120 * dfccl.Second)
	completed := make([]int, nGPUs)

	for rank := range nGPUs {
		lib.Go(fmt.Sprintf("worker%d", rank), func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			var mine []int
			colls := make([]*dfccl.Collective, len(groups))
			for id, g := range groups {
				for _, r := range g {
					if r == rank {
						mine = append(mine, id)
						c, err := ctx.Open(
							dfccl.AllReduce(32<<10, dfccl.Float32, dfccl.Sum, g...),
							dfccl.WithCollID(id))
						check(err)
						colls[id] = c
					}
				}
			}
			// Each rank launches its groups' collectives in its own
			// random order — the free-grouping disorder of Table 1 —
			// as one batch with a joined future.
			rng := rand.New(rand.NewSource(int64(1000 + rank)))
			for range 3 {
				rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
				var items []dfccl.BatchItem
				for _, id := range mine {
					items = append(items, dfccl.BatchItem{
						C:    colls[id],
						Send: dfccl.NewBuffer(dfccl.Float32, 32<<10),
						Recv: dfccl.NewBuffer(dfccl.Float32, 32<<10),
					})
				}
				fut, err := dfccl.Batch(p, items...)
				check(err)
				check(fut.Wait(p))
				completed[rank] += fut.Runs()
			}
			// Dynamic group creation during runtime (Sec. 3.2), then
			// dissolution: Close deregisters the collective and — once
			// all three members close — recycles its communicator.
			for _, r := range lateGroup {
				if r == rank {
					late, err := ctx.Open(
						dfccl.AllReduce(16<<10, dfccl.Float32, dfccl.Sum, lateGroup...),
						dfccl.WithCollID(99))
					check(err)
					fut, err := late.Launch(p,
						dfccl.NewBuffer(dfccl.Float32, 16<<10),
						dfccl.NewBuffer(dfccl.Float32, 16<<10))
					check(err)
					check(fut.Wait(p))
					completed[rank]++
					check(late.Close(p))
				}
			}
			ctx.Destroy(p)
		})
	}
	check(lib.Run())
	total := 0
	for rank, c := range completed {
		fmt.Printf("gpu%d completed %d collective runs\n", rank, c)
		total += c
	}
	fmt.Printf("total %d runs across overlapping groups, random per-GPU orders, zero deadlocks (%v virtual)\n",
		total, lib.Now())
	fmt.Printf("communicators created: %d (closed groups recycle theirs through the pool)\n",
		lib.System().CommsCreated())
	// Output:
	// gpu0 completed 9 collective runs
	// gpu1 completed 9 collective runs
	// gpu2 completed 10 collective runs
	// gpu3 completed 9 collective runs
	// gpu4 completed 10 collective runs
	// gpu5 completed 9 collective runs
	// gpu6 completed 7 collective runs
	// gpu7 completed 9 collective runs
	// total 72 runs across overlapping groups, random per-GPU orders, zero deadlocks (154.477ms virtual)
	// communicators created: 6 (closed groups recycle theirs through the pool)
}

// Hybrid-parallel deadlock scenario: two GPUs invoke two collectives
// in opposite orders with a cudaDeviceSynchronize in between — the
// paper's Fig. 1(d), which deadlocks NCCL even with ample resources.
// DFCCL's daemon kernel voluntarily quits so the synchronization can
// complete, then resumes the stuck collectives: everything finishes.
func ExampleRankContext_DeviceSynchronize() {
	const count = 64 << 10
	lib := dfccl.New(dfccl.Server3090(2))
	lib.SetTimeLimit(60 * dfccl.Second) // a real deadlock would trip this
	ranks := []int{0, 1}

	quits := make([]int, 2)
	for rank := range 2 {
		lib.Go(fmt.Sprintf("rank%d", rank), func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			spec := dfccl.AllReduce(count, dfccl.Float32, dfccl.Sum, ranks...)
			a, err := ctx.Open(spec, dfccl.WithCollID(0))
			check(err)
			b, err := ctx.Open(spec, dfccl.WithCollID(1))
			check(err)
			// GPU 0 invokes A then B; GPU 1 invokes B then A: the
			// disordered invocation of Fig. 1.
			first, second := a, b
			if rank == 1 {
				first, second = b, a
			}
			launch := func(c *dfccl.Collective) *dfccl.Future {
				fut, err := c.Launch(p,
					dfccl.NewBuffer(dfccl.Float32, count),
					dfccl.NewBuffer(dfccl.Float32, count))
				check(err)
				return fut
			}
			f1 := launch(first)
			// Explicit GPU synchronization between the two invocations:
			// with NCCL this completes the circular wait (Fig. 1(d));
			// with DFCCL the daemon kernel quits voluntarily, the sync
			// completes, and the collectives resume afterwards.
			ctx.DeviceSynchronize(p)
			f2 := launch(second)
			check(f1.Wait(p))
			check(f2.Wait(p))
			quits[rank] = ctx.Stats.VoluntaryQuits
			check(a.Close(p))
			check(b.Close(p))
			ctx.Destroy(p)
		})
	}
	check(lib.Run())
	fmt.Println("disordered collectives with device synchronization completed deadlock-free")
	fmt.Printf("voluntary daemon quits: gpu0=%d gpu1=%d (the quits let the syncs complete)\n", quits[0], quits[1])
	fmt.Printf("virtual time: %v\n", lib.Now())
	fmt.Println("(the same program against an NCCL-style library deadlocks; see cmd/trainbench -fig sec61-nccl)")
	// Output:
	// disordered collectives with device synchronization completed deadlock-free
	// voluntary daemon quits: gpu0=2 gpu1=2 (the quits let the syncs complete)
	// virtual time: 1.407ms
	// (the same program against an NCCL-style library deadlocks; see cmd/trainbench -fig sec61-nccl)
}
