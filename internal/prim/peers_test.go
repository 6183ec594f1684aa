package prim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/topo"
)

// checkPeers builds every position's TimingOnly executor over one wiring
// (BuildRingOn for a ring spec, BuildHierFabricOn for a hierarchical one)
// and checks that the sequences agree where they meet: for each
// connector, the ordered chunk lengths its writer sends (stages × rounds ×
// actions) equal the ones its reader receives. It also checks that every
// segment lies in the working buffer, that every action's bounds lie
// inside its segments, and that the init copy and copy-out fit the
// buffers BufferCountsFor sizes.
func checkPeers(c *topo.Cluster, spec Spec) error {
	spec = spec.Timing()
	ws := NewWirings(new(mem.Chunks), fabric.Unshared(c), "peers")
	sent := map[*mem.Connector][]int{}
	recvd := map[*mem.Connector][]int{}
	for pos := range spec.Ranks {
		x := ws.ExecutorFor(c, spec, pos, nil, nil)
		seq := x.Seq
		for _, sr := range seq.segs {
			if sr.Lo < 0 || sr.Lo > sr.Hi || sr.Hi > seq.workLen {
				return fmt.Errorf("pos %d: segment %v outside the %d-element working buffer", pos, sr, seq.workLen)
			}
		}
		fits := func(seg, elems int) bool { return elems >= 0 && elems <= seq.segs[seg].len() }
		for si, st := range seq.Stages {
			for ai, a := range st.Actions {
				if a.HasSend() && !fits(a.SendSeg, a.SendElems) || a.HasRecv() && !fits(a.RecvSeg, a.RecvElems) ||
					a.LocalCopy && !fits(a.RecvSeg, a.SendElems) {
					return fmt.Errorf("pos %d stage %d action %d %v: bounds %d/%d exceed segments %v/%v",
						pos, si, ai, a, a.SendElems, a.RecvElems, seq.segs[max(a.SendSeg, 0)], seq.segs[max(a.RecvSeg, 0)])
				}
			}
			for r := 0; r < st.Rounds; r++ {
				for _, a := range st.Actions {
					if a.LocalCopy {
						continue
					}
					if a.HasSend() {
						out := x.Outs[a.SendConn]
						sent[out] = append(sent[out], seq.sendSlice(a, r).len())
					}
					if a.HasRecv() {
						in := x.Ins[a.RecvConn]
						recvd[in] = append(recvd[in], seq.recvSlice(a, r).len())
					}
				}
			}
		}
		if err := checkBuffers(spec, pos, seq); err != nil {
			return err
		}
	}
	for conn, lens := range sent {
		if got := recvd[conn]; !slices.Equal(lens, got) {
			return fmt.Errorf("%s: writer sends chunks %v, reader receives %v", conn.Name(), lens, got)
		}
	}
	for conn, lens := range recvd {
		if _, ok := sent[conn]; !ok {
			return fmt.Errorf("%s: reader receives chunks %v nobody sends", conn.Name(), lens)
		}
	}
	return nil
}

// requirePeers is checkPeers over spec's hierarchical and ring schedules.
func requirePeers(t *testing.T, name string, c *topo.Cluster, spec Spec) {
	t.Helper()
	for _, algo := range []Algorithm{AlgoHierarchical, AlgoRing} {
		spec.Algo = algo
		if err := checkPeers(c, spec); err != nil {
			t.Fatalf("%s %v: %v", name, algo, err)
		}
	}
}

// checkBuffers checks that position pos's init copy and copy-out fit the
// send and recv buffers BufferCountsFor sizes. A seeded plan's seeds
// tile [0, sendCount) exactly, in segment order, each as long as its
// segment, and its init copy moves one segment's seed; a copy-out from a
// working buffer that is the recv buffer names segments already in place.
func checkBuffers(spec Spec, pos int, seq *Sequence) error {
	sendCount, recvCount := BufferCountsFor(spec, pos)
	own := sendCount // what the init copy moves
	if seq.seeded {
		if seq.useScratch || seq.initCopyOwnSeg < 0 {
			return fmt.Errorf("pos %d: seeded plan with scratch %t, init copy %d", pos, seq.useScratch, seq.initCopyOwnSeg)
		}
		end := 0
		for i, sr := range seq.segs {
			sd := seq.seed(i)
			if sd.Lo != end || sd.len() != sr.len() {
				return fmt.Errorf("pos %d: seed %d is %v after %d, segment %v", pos, i, sd, end, sr)
			}
			end = sd.Hi
		}
		if end != sendCount {
			return fmt.Errorf("pos %d: seeds cover %d of a %d-element send buffer", pos, end, sendCount)
		}
		own = seq.seed(seq.initCopyOwnSeg).len()
	}
	switch ic := seq.initCopyOwnSeg; {
	case ic == initCopyWhole && seq.workLen != sendCount,
		ic == initCopyPrefix && seq.workLen < sendCount,
		ic >= 0 && seq.segs[ic].len() != own:
		return fmt.Errorf("pos %d: init copy %d of a %d-element send buffer into a %d-element working buffer",
			pos, ic, sendCount, seq.workLen)
	}
	out := seq.workLen
	if len(seq.copyOut) > 0 {
		out = 0
		for _, sg := range seq.copyOut {
			if sr := seq.segs[sg]; !seq.useScratch && sr.Lo != out {
				return fmt.Errorf("pos %d: copy-out of segment %v onto recv element %d of the same buffer", pos, sr, out)
			}
			out += seq.segs[sg].len()
		}
	} else if seq.useScratch {
		return nil // the result stays in scratch (a reduce's non-root)
	}
	if out != recvCount {
		return fmt.Errorf("pos %d: %d result elements for a %d-element recv buffer", pos, out, recvCount)
	}
	return nil
}

// FuzzSequences holds Spec.Validate to the sequence builders: every input
// ends in a Validate error or in sequences, for every position, that pass
// checkPeers — never in a panic. The inputs span every kind and
// algorithm value (unknown ones included), 1–3 nodes × 1–4 GPUs, a seeded
// rank subset of 1..all GPUs in seeded order, Count, chunk, type, op,
// root, and a seeded all-to-all-v count matrix (entries 0–40; a seed
// ending in binary 1 zeroes a row, 1x a column; a negative seed attaches
// none). Count and chunk stay small, so an input checks in microseconds;
// the schedules' structure does not depend on magnitude. The committed
// corpus is testdata/fuzz/FuzzSequences; run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzSequences -fuzztime 10s ./internal/prim
func FuzzSequences(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, algo int8, nodes, gpus uint8, perm int64, ranks uint8, count int16, chunk, typ, op, root int8, counts int64) {
		machines, perNode := upTo(nodes, 3), upTo(gpus, 4)
		total := machines * perNode
		n := upTo(ranks, total)
		spec := Spec{
			Kind: Kind(kind), Algo: Algorithm(algo), Count: int(count % 256), ChunkElems: int(chunk),
			Type: mem.DataType(typ), Op: mem.ReduceOp(op), Root: int(root),
			Ranks: rand.New(rand.NewSource(perm)).Perm(total)[:n],
		}
		if spec.Algo == AlgoAuto {
			spec.Algo = AlgoRing // the runtime resolves auto before building a sequence
		}
		if counts >= 0 {
			rng := rand.New(rand.NewSource(counts))
			spec.Counts = make([][]int, n)
			for i := range spec.Counts {
				spec.Counts[i] = make([]int, n)
				for j := range spec.Counts[i] {
					spec.Counts[i][j] = rng.Intn(41)
				}
			}
			if counts&1 != 0 {
				clear(spec.Counts[rng.Intn(n)])
			}
			if counts&2 != 0 {
				col := rng.Intn(n)
				for _, row := range spec.Counts {
					row[col] = 0
				}
			}
		}
		if spec.Validate() != nil {
			return
		}
		c := topo.NewCluster(machines, perNode, topo.RTX3090, topo.DefaultLinks)
		if err := checkPeers(c, spec); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
	})
}

// upTo maps v onto 1..k, leaving 1..k as they are.
func upTo(v uint8, k int) int { return 1 + (int(v)+k-1)%k }
