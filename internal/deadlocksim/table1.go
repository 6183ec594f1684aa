package deadlocksim

// Table1Configs returns the paper's Table 1 rows, scaled to the given
// number of rounds (the paper uses 32,000; tests and quick benches use
// fewer). The 3072-GPU (8,6,64) rows are the most expensive; callers
// typically reduce rounds further for them.
func Table1Configs(rounds int) []Config {
	var cfgs []Config
	add := func(c Config) { cfgs = append(cfgs, c) }

	mk3D := func(name string, tp, dp, pp, tpColls, dpColls int, model Model, dis, sync float64) Config {
		groups, colls, n := ThreeD(tp, dp, pp, tpColls, dpColls)
		return Config{
			Name: name, Model: model,
			Groups: groups, CollsPerGroup: colls, NumGPUs: n,
			DisorderProb: dis, SyncProb: sync,
			Rounds: rounds, Seed: 1,
		}
	}
	mkFree := func(name string, nSmall, smallSize, nBig, bigSize, numGPUs, collsA, collsB int, model Model, dis, sync float64) Config {
		groups, colls := FreeGrouping(nSmall, smallSize, nBig, bigSize, numGPUs, collsA, collsB, 99)
		return Config{
			Name: name, Model: model,
			Groups: groups, CollsPerGroup: colls, NumGPUs: numGPUs,
			DisorderProb: dis, SyncProb: sync,
			Rounds: rounds, Seed: 1,
		}
	}

	// Single-queue model, 3D grouping.
	add(mk3D("sq-3d(4,4,4)-dis1e-7", 4, 4, 4, 400, 1200, SingleQueue, 1e-7, 0))
	add(mk3D("sq-3d(4,4,4)-dis1e-6", 4, 4, 4, 400, 1200, SingleQueue, 1e-6, 0))
	add(mk3D("sq-3d(8,6,64)-dis1e-9", 8, 6, 64, 400, 1200, SingleQueue, 1e-9, 0))
	add(mk3D("sq-3d(8,6,64)-dis1e-8", 8, 6, 64, 400, 1200, SingleQueue, 1e-8, 0))

	// Single-queue model, free grouping.
	add(mkFree("sq-free(1,8)-dis1e-5", 1, 8, 0, 0, 8, 161, 161, SingleQueue, 1e-5, 0))
	add(mkFree("sq-free(32,64)-dis1e-6", 28, 3, 4, 8, 64, 400, 1200, SingleQueue, 1e-6, 0))
	add(mkFree("sq-free(32,64)-dis1e-5", 28, 3, 4, 8, 64, 400, 1200, SingleQueue, 1e-5, 0))
	add(mkFree("sq-free(32,128)-dis1e-6", 28, 5, 4, 10, 128, 400, 1200, SingleQueue, 1e-6, 0))

	// Synchronization model, 3D grouping.
	add(mk3D("sync-3d(4,4,4)-d2e-3-s4e-3", 4, 4, 4, 400, 1200, Synchronization, 2e-3, 4e-3))
	add(mk3D("sync-3d(4,4,4)-d4e-3-s4e-3", 4, 4, 4, 400, 1200, Synchronization, 4e-3, 4e-3))
	add(mk3D("sync-3d(4,4,4)-d4e-3-s2e-3", 4, 4, 4, 400, 1200, Synchronization, 4e-3, 2e-3))
	add(mk3D("sync-3d(4,4,4)-800,2400-d4e-3-s4e-3", 4, 4, 4, 800, 2400, Synchronization, 4e-3, 4e-3))
	add(mk3D("sync-3d(8,6,64)-d8e-4-s8e-4", 8, 6, 64, 400, 1200, Synchronization, 8e-4, 8e-4))

	// Synchronization model, free grouping.
	add(mkFree("sync-free(32,64)-d4e-6-s4e-5", 28, 3, 4, 8, 64, 400, 1200, Synchronization, 4e-6, 4e-5))
	add(mkFree("sync-free(32,64)-d4e-5-s4e-5", 28, 3, 4, 8, 64, 400, 1200, Synchronization, 4e-5, 4e-5))
	add(mkFree("sync-free(32,64)-d4e-5-s8e-5", 28, 3, 4, 8, 64, 400, 1200, Synchronization, 4e-5, 8e-5))
	add(mkFree("sync-free(32,64)-800,2400-d4e-5-s4e-5", 28, 3, 4, 8, 64, 800, 2400, Synchronization, 4e-5, 4e-5))
	add(mkFree("sync-free(32,128)-d4e-5-s4e-5", 28, 5, 4, 10, 128, 400, 1200, Synchronization, 4e-5, 4e-5))

	return cfgs
}
