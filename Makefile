GO ?= go
BENCH := BENCH.json

.PHONY: all fmt vet build test test-race ci smoke doccheck detcheck benchcheck loc soak bench tune chaos trace cluster

all: ci

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-race runs the whole suite under the race detector. The
# simulation is cooperatively scheduled, but every process is its own
# goroutine (a coroutine the engine resumes), so this checks the
# engine's hand-off as well as guarding the host-side harness code
# (benches, workloads) against accidental real concurrency; ~1.5 min.
test-race:
	$(GO) test -race ./...

ci: fmt vet build test

# doccheck fails if any exported identifier in any package of the
# module (benchmark/ not) lacks a doc comment (go/ast-based, no external
# linters; see cmd/doccheck), or if the newest CHANGES.md entry is
# longer than 1 500 characters.
doccheck:
	$(GO) run ./cmd/doccheck

# detcheck type-checks every non-test package of the module (cmd/
# included, benchmark/ not) and fails on any range over a map: Go
# randomizes map iteration order, and the simulation's outputs must
# come out bit for bit the same on every run. It is a test behind the
# detcheck build tag (detcheck_test.go), so `go test ./...` skips it.
detcheck:
	$(GO) test -tags detcheck -run TestNoMapRange -count=1 .

# benchcheck vets and tests the host-time benchmark. benchmark/ is a
# module of its own (benchmark/go.mod), so `go build ./...` and
# `go test ./...` never see it: this is what catches an API change that
# broke it (~8 s).
benchcheck:
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark .

# loc prints the non-test line count, Go and assembly, each PR reports
# the delta of in CHANGES.md (the benchmark module is not counted), so
# code moved into a .s file still counts. It counts the working tree:
# tracked and untracked-but-not-ignored files that exist, so a file not
# yet added counts and a deleted one does not.
loc:
	@git ls-files -co --exclude-standard '*.go' '*.s' | grep -v '_test.go$$' | grep -v '^benchmark/' \
		| while read -r f; do if [ -f "$$f" ]; then cat "$$f"; fi; done | wc -l

# soak reruns the fault-path and flight-recorder tests 200 times: the
# kill / abort / requeue paths must be deterministic on every run, not
# most of them. The engine's coroutine hand-off is the one piece of real
# cross-goroutine state in the tree, so its own tests also run 50 times
# under the race detector, and the event queue's and waiter lists' model
# test and its timer edge cases 200 times without it. The data plane's run 20 times under it: mem's
# generic kernels view bytes through unsafe (-race turns checkptr on;
# race builds leave the SSE2 kernels out, so every access is seen), and
# recycled connector chunks are only correct while readers consume
# before they yield. The daemon kernel and the poller are machines held
# to the blocking code they replaced; that oracle runs 200 times, and
# core's whole suite 20 times under the race detector. The 40-seed
# kill/requeue table at two jobs per GPU runs 20 times. A fabric flow is
# woken only when a solve changes its rate: the transfer machine's oracle
# and the layer's invariant tests run 200 times, fabric's whole suite 20
# times under the race detector. Every race run is a process of its own:
# the race runtime's memory grows with each count a test binary runs
# while the live heap stays flat (~450 MB a count for prim, ~240 MB for
# fabric, ~130 MB for sim), so 20 or 50 counts in one process need
# gigabytes. Connectors lend chunks of the writer's memory until it
# settles them: the model packages run 20 times with the
# lent-chunk-stable invariant built in (-tags lentcheck). The all-to-all
# forwards through two scratch transit slots it settles before each
# receive: the test that catches a missed settle there runs 200 times,
# and 50 times under the tag beside the kill in mid all-to-all.
# Communicators borrow their connectors from one pool per system: the
# churn test over shifting rank sets with kills, which checks that no
# connector is held twice or held while pooled, runs 200 times, and 200
# times with the lent-chunk-stable invariant built in (the race loop
# above runs it 20 times under the race detector, a process a count).
soak:
	$(GO) test -count=200 -run 'Chaos|Cluster' ./internal/...
	$(GO) test -count=20 -run 'TestChurnKillsCommitAtTwoSlots' ./internal/cluster
	$(GO) test -count=200 -run 'TestExperiments/^(chaos|cluster|trace)$$' ./internal/bench
	$(GO) test -count=200 -run 'MatchesBlocking' ./internal/core
	for i in $$(seq 50); do $(GO) test -race -count=1 ./internal/sim || exit 1; done
	$(GO) test -count=200 -run 'TestQueueMatchesModel|TestTimerRekeyEdgeCases' ./internal/sim
	for i in $$(seq 20); do $(GO) test -race -count=1 ./internal/mem ./internal/prim ./internal/core || exit 1; done
	$(GO) test -count=200 -run 'RepredictMatchesLoop|JoinWakesOnlyReratedFlows|FlowDueInvariant|XferBeginUnheld' ./internal/fabric
	for i in $$(seq 20); do $(GO) test -race -count=1 ./internal/fabric || exit 1; done
	$(GO) test -tags lentcheck -count=20 ./internal/...
	$(GO) test -count=200 -run 'TestAllToAllNeedsOnlyTransit' ./internal/prim
	$(GO) test -tags lentcheck -count=50 -run 'TestAllToAllNeedsOnlyTransit|TestAllToAllKillMidRun' ./internal/prim ./internal/core
	$(GO) test -count=200 -run 'TestConnectorPoolChurn|TestConns' ./internal/core ./internal/mem
	$(GO) test -tags lentcheck -count=200 -run 'TestConnectorPoolChurn' ./internal/core

# bench regenerates the machine-readable perf-trajectory snapshot
# (BENCH.json): the all-to-all size × algorithm × shape × fabric
# matrix, the fault-injection scenarios with their chaos-overhead
# column, the full-collective matrix (all-reduce / all-gather /
# reduce-scatter × ring / hierarchical / auto), the tracing-overhead
# cells pinning the flight recorder's zero observer effect, and the
# multi-job contention column (per-policy cluster cells plus the
# launch-path allocs/op cell). Deterministic — regenerating on an
# unchanged tree is a no-op diff, so CI can assert the committed
# snapshot is current. There is one snapshot; its history is
# `git log -p BENCH.json`.
bench:
	$(GO) run ./cmd/trainbench -fig collbench -out $(BENCH)

# tune regenerates the committed auto-tuning table
# (internal/tune/default_table.json) from the crossover sweep; like
# bench, a re-run on an unchanged tree must be a no-op diff.
tune:
	$(GO) run ./cmd/trainbench -fig tune

# chaos runs the fault-injection gate: seeded kill/revive schedules
# against live elastic DP/MoE/ZeRO workloads; exits non-zero unless
# every fault surfaces as a typed error or a clean re-formation with
# training bit-identical to the fault-free reference.
chaos:
	$(GO) run ./cmd/trainbench -fig chaos

# trace runs the flight-recorder gate and writes trace.json (open in
# chrome://tracing or https://ui.perfetto.dev) and metrics.json; exits
# non-zero unless trace-derived byte totals reconcile exactly against
# the executors' accounting, span counts match executed primitives, the
# chaos kill left abort+reform marks, and regeneration is
# byte-identical.
trace:
	$(GO) run ./cmd/trainbench -fig trace

# cluster runs the multi-tenant cluster gate: a bursty trace of
# heterogeneous jobs contending for one fabric under FIFO / priority /
# bin-packing admission; exits non-zero unless every job is
# bit-identical to its solo run, the priority policy beats FIFO on
# high-priority p99 sojourn, a mid-run kill requeues cleanly, and zero
# goroutines leak after drain. See internal/cluster.
cluster:
	$(GO) run ./cmd/trainbench -fig cluster

# smoke is the all-in-one gate: formatting, static checks (go vet, and
# go vet for arm64, which fails on a symbol only amd64 defines), the
# race-detector test pass — which runs every experiment and gate at
# reduced scale, as the rows of internal/bench's TestExperiments
# (~2 min), and mem's generic reduction loop without the SSE2 kernels,
# which race builds leave out — the godoc floor, the map-range scan, the benchmark
# module's own vet + tests,
# 10 s of fuzzing the cluster kill path (FuzzClusterKills), 10 s of
# fuzzing the trace generator's configs (FuzzGenerate), 10 s of fuzzing
# Spec.Validate against the sequence builders (FuzzSequences), 10 s of
# fuzzing chaos.Run's configs (FuzzChaos), 10 s of fuzzing connectors
# sharing one chunk staging pool (FuzzChunks) and 10 s of fuzzing
# deadlocksim's configs, each valid one held to the NCCL baseline
# (FuzzDecisionModels; one worker, since every deadlocked replay leaves
# its engine's processes parked for good), each minimising a new input
# for at most 1 s (Go's default 60 s stalled a 10 s run), the data plane's and the
# fault paths' tests with the lent-chunk-stable invariant built in
# (-tags lentcheck), and a regeneration of the artifacts: the tuning
# table and BENCH.json must come out as no-op diffs, trace.json and
# metrics.json (not committed) byte-identical on the gate's own second
# run. See TESTING.md.
smoke: fmt vet build test-race doccheck detcheck benchcheck
	GOARCH=arm64 $(GO) vet ./...
	$(GO) test -run '^$$' -fuzz FuzzClusterKills -fuzztime 10s -fuzzminimizetime 1s ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzGenerate -fuzztime 10s -fuzzminimizetime 1s ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzSequences -fuzztime 10s -fuzzminimizetime 1s ./internal/prim
	$(GO) test -run '^$$' -fuzz FuzzChaos -fuzztime 10s -fuzzminimizetime 1s ./internal/chaos
	$(GO) test -run '^$$' -fuzz FuzzChunks -fuzztime 10s -fuzzminimizetime 1s ./internal/mem
	$(GO) test -run '^$$' -fuzz FuzzDecisionModels -fuzztime 10s -fuzzminimizetime 1s -parallel 1 ./internal/deadlocksim
	$(GO) test -tags lentcheck ./internal/prim ./internal/cluster ./internal/chaos
	$(GO) run ./cmd/trainbench -fig tune
	$(GO) run ./cmd/trainbench -fig trace > /dev/null
	$(GO) run ./cmd/trainbench -fig collbench -out $(BENCH)
	@git diff --exit-code -- internal/tune/default_table.json $(BENCH) \
		|| { echo "smoke: regenerated artifacts differ from the committed ones"; exit 1; }
	@echo "smoke: OK"
