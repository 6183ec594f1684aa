package dfccl_test

import (
	"strings"
	"testing"

	"dfccl"
	"dfccl/internal/sim"
)

// TestV2HandleQuickstart drives the v2 surface end to end: builder
// spec, Open with auto collective ID, future-style Launch, core-exec
// timing, Close, and pool recycling observed through the facade.
func TestV2HandleQuickstart(t *testing.T) {
	const n, count, cycles = 4, 256, 3
	lib := dfccl.New(dfccl.Server3090(n))
	lib.SetTimeLimit(30 * dfccl.Second)
	ranks := []int{0, 1, 2, 3}
	results := make([]*dfccl.Buffer, n)
	coreExec := make([]dfccl.Duration, n)
	bar := sim.NewBarrier("test.barrier", n)
	for rank := 0; rank < n; rank++ {
		rank := rank
		lib.Go("rank", func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			for cy := 0; cy < cycles; cy++ {
				coll, err := ctx.Open(dfccl.AllReduce(count, dfccl.Float64, dfccl.Sum, ranks...))
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				send := dfccl.NewBuffer(dfccl.Float64, count)
				recv := dfccl.NewBuffer(dfccl.Float64, count)
				send.Fill(float64(rank + 1))
				results[rank] = recv
				fut, err := coll.Launch(p, send, recv)
				if err != nil {
					t.Errorf("launch: %v", err)
					return
				}
				if err := fut.Wait(p); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
				coreExec[rank] = fut.CoreExecTime()
				if err := coll.Close(p); err != nil {
					t.Errorf("close: %v", err)
					return
				}
				bar.Wait(p)
			}
			ctx.Destroy(p)
		})
	}
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for rank, r := range results {
		if got := r.Float64At(count - 1); got != 10 {
			t.Fatalf("rank %d = %v, want 10", rank, got)
		}
		if coreExec[rank] <= 0 {
			t.Fatalf("rank %d core-exec time = %v, want > 0", rank, coreExec[rank])
		}
	}
	if got := lib.System().CommsCreated(); got != 1 {
		t.Fatalf("CommsCreated = %d after %d open/close cycles, want 1", got, cycles)
	}
}

// TestV2BatchDisorder submits each rank's collectives as one Batch in
// rank-specific (circularly disordered) orders — the scenario that
// deadlocks NCCL — and joins on a single future per rank.
func TestV2BatchDisorder(t *testing.T) {
	const n, nColl, count = 4, 5, 128
	lib := dfccl.New(dfccl.Server3090(n))
	lib.SetTimeLimit(30 * dfccl.Second)
	ranks := []int{0, 1, 2, 3}
	runs := make([]int, n)
	for rank := 0; rank < n; rank++ {
		rank := rank
		lib.Go("rank", func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			items := make([]dfccl.BatchItem, 0, nColl)
			for c := 0; c < nColl; c++ {
				coll, err := ctx.Open(
					dfccl.AllReduce(count, dfccl.Float32, dfccl.Sum, ranks...),
					dfccl.WithCollID(c), dfccl.WithPriority(c))
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				items = append(items, dfccl.BatchItem{
					C:    coll,
					Send: dfccl.NewBuffer(dfccl.Float32, count),
					Recv: dfccl.NewBuffer(dfccl.Float32, count),
				})
			}
			// Rotate the batch by rank: every rank submits in a
			// different circular order.
			rot := append(items[rank%nColl:], items[:rank%nColl]...)
			fut, err := dfccl.Batch(p, rot...)
			if err != nil {
				t.Errorf("batch: %v", err)
				return
			}
			if err := fut.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			runs[rank] = fut.Runs()
			ctx.Destroy(p)
		})
	}
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for rank, r := range runs {
		if r != nColl {
			t.Fatalf("rank %d joined %d runs, want %d", rank, r, nColl)
		}
	}
}

// TestV2BuildersMatchKinds exercises every builder through Open and a
// launch, checking the deprecated shims and the handle layer coexist.
func TestV2BuildersMatchKinds(t *testing.T) {
	const n = 4
	lib := dfccl.New(dfccl.Server3090(n))
	lib.SetTimeLimit(30 * dfccl.Second)
	ranks := []int{0, 1, 2, 3}
	for rank := 0; rank < n; rank++ {
		rank := rank
		lib.Go("rank", func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			specs := []dfccl.Spec{
				dfccl.AllReduce(64, dfccl.Float64, dfccl.Sum, ranks...),
				dfccl.AllGather(16, dfccl.Float64, ranks...),
				dfccl.ReduceScatter(64, dfccl.Float64, dfccl.Sum, ranks...),
				dfccl.Broadcast(32, dfccl.Float64, 2, ranks...),
				dfccl.Reduce(32, dfccl.Float64, dfccl.Max, 1, ranks...),
				dfccl.AllToAll(8, dfccl.Float64, ranks...),
			}
			var futs []*dfccl.Future
			for i, spec := range specs {
				coll, err := ctx.Open(spec, dfccl.WithCollID(10+i))
				if err != nil {
					t.Errorf("open %d: %v", i, err)
					return
				}
				sendCount, recvCount := 64, 64
				switch i {
				case 1:
					sendCount, recvCount = 16, 64
				case 2:
					sendCount, recvCount = 64, 16
				case 3, 4:
					sendCount, recvCount = 32, 32
				case 5:
					sendCount, recvCount = 32, 32 // 8 per peer × 4 ranks
				}
				fut, err := coll.Launch(p,
					dfccl.NewBuffer(dfccl.Float64, sendCount),
					dfccl.NewBuffer(dfccl.Float64, recvCount))
				if err != nil {
					t.Errorf("launch %d: %v", i, err)
					return
				}
				futs = append(futs, fut)
			}
			// An explicit collective ID and a callback-style launch (the
			// paper's dfcclRegister*/dfcclRun* shape) work alongside
			// auto-ID handles and futures.
			byID, err := ctx.Open(dfccl.AllReduce(64, dfccl.Float64, dfccl.Sum, ranks...), dfccl.WithCollID(99))
			if err != nil {
				t.Errorf("explicit-ID open: %v", err)
				return
			}
			s := dfccl.NewBuffer(dfccl.Float64, 64)
			d := dfccl.NewBuffer(dfccl.Float64, 64)
			if err := byID.LaunchCB(p, s, d, nil); err != nil {
				t.Errorf("callback launch: %v", err)
				return
			}
			for i, fut := range futs {
				if err := fut.Wait(p); err != nil {
					t.Errorf("wait %d: %v", i, err)
					return
				}
			}
			ctx.WaitAll(p)
			ctx.Destroy(p)
		})
	}
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestV2AllToAll drives the all-to-all collective through the full
// DFCCL stack (daemon kernel, SQ/CQ, preemption machinery) across
// three launch modes: real data, TimingOnly, and the nil-buffer error
// path.
func TestV2AllToAll(t *testing.T) {
	cases := []struct {
		name       string
		n          int
		count      int
		timingOnly bool
		nilBufs    bool
		wantErr    bool
	}{
		{name: "numeric-4", n: 4, count: 16},
		{name: "numeric-uneven-3", n: 3, count: 10},
		{name: "numeric-uneven-5", n: 5, count: 7},
		{name: "timing-only", n: 4, count: 4096, timingOnly: true},
		{name: "nil-buffers-rejected", n: 4, count: 16, nilBufs: true, wantErr: true},
		{name: "timing-only-nil-ok", n: 4, count: 4096, timingOnly: true, nilBufs: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			lib := dfccl.New(dfccl.Server3090(8))
			lib.SetTimeLimit(60 * dfccl.Second)
			ranks := make([]int, tc.n)
			for i := range ranks {
				ranks[i] = i
			}
			spec := dfccl.AllToAll(tc.count, dfccl.Float64, ranks...)
			if tc.timingOnly {
				spec = spec.Timing()
			}
			recvs := make([]*dfccl.Buffer, tc.n)
			launchErrs := make([]error, tc.n)
			for rank := 0; rank < tc.n; rank++ {
				rank := rank
				lib.Go("rank", func(p *dfccl.Process) {
					ctx := lib.Init(p, rank)
					coll, err := ctx.Open(spec)
					if err != nil {
						t.Errorf("open: %v", err)
						return
					}
					var send, recv *dfccl.Buffer
					if !tc.nilBufs {
						send = dfccl.NewBuffer(dfccl.Float64, tc.count*tc.n)
						recv = dfccl.NewBuffer(dfccl.Float64, tc.count*tc.n)
						for dst := 0; dst < tc.n; dst++ {
							for i := 0; i < tc.count; i++ {
								send.SetFloat64(dst*tc.count+i, float64(1000*rank+100*dst+i))
							}
						}
						recvs[rank] = recv
					}
					fut, err := coll.Launch(p, send, recv)
					launchErrs[rank] = err
					if err == nil {
						if werr := fut.Wait(p); werr != nil {
							t.Errorf("wait: %v", werr)
						}
						if cerr := coll.Close(p); cerr != nil {
							t.Errorf("close: %v", cerr)
						}
					}
					ctx.Destroy(p)
				})
			}
			if err := lib.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			for rank, err := range launchErrs {
				if tc.wantErr && err == nil {
					t.Fatalf("rank %d: launch with nil buffers succeeded, want error", rank)
				}
				if !tc.wantErr && err != nil {
					t.Fatalf("rank %d: launch: %v", rank, err)
				}
			}
			if tc.wantErr || tc.nilBufs || tc.timingOnly {
				return
			}
			for r := 0; r < tc.n; r++ {
				for src := 0; src < tc.n; src++ {
					for i := 0; i < tc.count; i++ {
						want := float64(1000*src + 100*r + i)
						if got := recvs[r].Float64At(src*tc.count + i); got != want {
							t.Fatalf("rank %d block from %d elem %d = %v, want %v", r, src, i, got, want)
						}
					}
				}
			}
		})
	}
}

// TestV2AllToAllv drives the variable-count all-to-all through the
// full DFCCL stack: the AllToAllv builder plus Spec.Counts carrying a
// skewed count matrix, per-rank ragged buffer sizing, and
// the wrong-size / missing-counts error paths.
func TestV2AllToAllv(t *testing.T) {
	counts := [][]int{
		{2, 9, 0, 4},
		{5, 1, 7, 0},
		{0, 3, 2, 8},
		{6, 0, 1, 2},
	}
	const n = 4
	rowSum := func(i int) int {
		s := 0
		for _, c := range counts[i] {
			s += c
		}
		return s
	}
	colSum := func(j int) int {
		s := 0
		for _, row := range counts {
			s += row[j]
		}
		return s
	}
	lib := dfccl.New(dfccl.Server3090(n))
	lib.SetTimeLimit(60 * dfccl.Second)
	recvs := make([]*dfccl.Buffer, n)
	for rank := 0; rank < n; rank++ {
		rank := rank
		lib.Go("rank", func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			// Missing counts must be rejected at Open.
			if _, err := ctx.Open(dfccl.AllToAllv(dfccl.Float64, 0, 1, 2, 3)); err == nil {
				t.Error("Open accepted an AllToAllv spec with no counts")
			}
			spec := dfccl.AllToAllv(dfccl.Float64, 0, 1, 2, 3)
			spec.Counts = counts
			coll, err := ctx.Open(spec, dfccl.WithCollID(77))
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			send := dfccl.NewBuffer(dfccl.Float64, rowSum(rank))
			recv := dfccl.NewBuffer(dfccl.Float64, colSum(rank))
			recvs[rank] = recv
			off := 0
			for dst := 0; dst < n; dst++ {
				for i := 0; i < counts[rank][dst]; i++ {
					send.SetFloat64(off, float64(1000*rank+100*dst+i))
					off++
				}
			}
			// A uniform-size buffer is the wrong shape for this rank's
			// ragged row/column sums and must be rejected.
			if _, err := coll.Launch(p, dfccl.NewBuffer(dfccl.Float64, 999), recv); err == nil {
				t.Error("launch accepted a wrong-size send buffer")
			}
			fut, err := coll.Launch(p, send, recv)
			if err != nil {
				t.Errorf("launch: %v", err)
				return
			}
			if err := fut.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
			}
			if err := coll.Close(p); err != nil {
				t.Errorf("close: %v", err)
			}
			ctx.Destroy(p)
		})
	}
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for pos := 0; pos < n; pos++ {
		off := 0
		for src := 0; src < n; src++ {
			for i := 0; i < counts[src][pos]; i++ {
				want := float64(1000*src + 100*pos + i)
				if got := recvs[pos].Float64At(off); got != want {
					t.Fatalf("pos %d block from %d elem %d = %v, want %v", pos, src, i, got, want)
				}
				off++
			}
		}
	}
}

// TestLaunchRejectsBufferOfAnotherType: a buffer whose element type is
// not the spec's is refused by Launch, LaunchCB and Batch with an error
// naming both types, where it used to run and corrupt the result (float64
// ones summed as float32 came back as 65536 instead of 4). A launch with
// the right buffers still completes exactly afterwards.
func TestLaunchRejectsBufferOfAnotherType(t *testing.T) {
	const n, count = 4, 8
	lib := dfccl.New(dfccl.Server3090(n))
	lib.SetTimeLimit(30 * dfccl.Second)
	ranks := []int{0, 1, 2, 3}
	results := make([]*dfccl.Buffer, n)
	for rank := 0; rank < n; rank++ {
		rank := rank
		lib.Go("rank", func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			defer ctx.Destroy(p)
			coll, err := ctx.Open(dfccl.AllReduce(count, dfccl.Float32, dfccl.Sum, ranks...))
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			f32, f64 := dfccl.NewBuffer(dfccl.Float32, count), dfccl.NewBuffer(dfccl.Float64, count)
			f32.Fill(1)
			f64.Fill(1)
			refused := func(how string, err error) {
				if err == nil || !strings.Contains(err.Error(), "float64") || !strings.Contains(err.Error(), "float32") {
					t.Errorf("rank %d %s: %v, want an error naming float64 and float32", rank, how, err)
				}
			}
			_, err = coll.Launch(p, f64, dfccl.NewBuffer(dfccl.Float32, count))
			refused("Launch, float64 send", err)
			_, err = coll.Launch(p, f32, dfccl.NewBuffer(dfccl.Float64, count))
			refused("Launch, float64 recv", err)
			refused("LaunchCB, float64 send", coll.LaunchCB(p, f64, dfccl.NewBuffer(dfccl.Float32, count), nil))
			_, err = dfccl.Batch(p,
				dfccl.BatchItem{C: coll, Send: f32, Recv: dfccl.NewBuffer(dfccl.Float32, count)},
				dfccl.BatchItem{C: coll, Send: f32, Recv: dfccl.NewBuffer(dfccl.Float64, count)})
			refused("Batch, float64 recv in the second item", err)
			recv := dfccl.NewBuffer(dfccl.Float32, count)
			fut, err := coll.Launch(p, f32, recv)
			if err != nil {
				t.Errorf("rank %d launch: %v", rank, err)
				return
			}
			if err := fut.Wait(p); err != nil {
				t.Errorf("rank %d wait: %v", rank, err)
			}
			results[rank] = recv
			if err := coll.Close(p); err != nil {
				t.Errorf("rank %d close: %v", rank, err)
			}
		})
	}
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for rank, recv := range results {
		for i := 0; recv != nil && i < count; i++ {
			if got := recv.Float64At(i); got != n {
				t.Fatalf("rank %d elem %d = %v, want %d", rank, i, got, n)
			}
		}
	}
}
