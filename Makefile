GO ?= go

# The bench targets pipe go test into benchjson; without pipefail a bench
# process that dies mid-run (without printing a FAIL line) would let the
# pipeline report benchjson's success instead.
SHELL := bash
.SHELLFLAGS := -o pipefail -c

# The hot control-plane paths whose numbers the perf trajectory
# (BENCH_control_plane.json) tracks. BenchmarkBatchPrepare lives in
# internal/session (it drives the unexported prepare phase directly), so the
# bench targets cover that package alongside the root. internal/overlay holds
# BenchmarkDeepCycle, a bare overlay manager's deep-tree ramp and drain
# (ns, B and allocs per cycle); it is in no guard.
HOT_BENCH = BenchmarkJoin/|BenchmarkViewChange$$|BenchmarkConcurrentJoin|BenchmarkChurn$$|BenchmarkWorkloadParallel$$|BenchmarkMigration$$|BenchmarkBatchPrepare|BenchmarkFootprint/100k$$|BenchmarkRecovery|BenchmarkDeepCycle$$
BENCH_PKGS = . ./internal/session ./internal/overlay

# bench-smoke fails when a guarded benchmark's joins/s falls more than
# MAX_REGRESS below the checked-in trajectory.
GUARD_BENCH = BenchmarkConcurrentJoin/|BenchmarkWorkloadParallel$$
MAX_REGRESS = 0.25

# The memory guard covers the per-join allocation profile and the 100k
# steady-state footprint benchmark. Unlike joins/s, B/op and allocs/op are
# near-deterministic even at -benchtime=5x, so the same 25% bar catches far
# smaller real regressions (one new alloc on the join path is +4%).
MEMGUARD_BENCH = BenchmarkJoin/telemetry=off$$|BenchmarkFootprint/100k$$
MAX_MEM_GROWTH = 0.25

# The telemetry tax guard: the armed join path must stay within this
# fraction of the disarmed one, both measured on the same machine in one
# make run so the comparison is immune to machine-to-machine drift. Each
# variant runs at a fixed iteration count (identical work per variant) in
# five pairs of single-repetition invocations in ABBA order (off on, on
# off, off on, ...), so neither variant always runs first and the two runs
# of a pair sit next to each other in time. benchjson pairs the
# k-th run of each variant and compares the median of the on/off ratios
# with the bar, because a single sample of each swings ±10% on a shared box
# and the best run of each let one outlier reference run fail the pair.
TEL_DELTA_PAIR = BenchmarkJoin/telemetry=on:BenchmarkJoin/telemetry=off
MAX_TEL_DELTA = 0.05

.PHONY: build test test-race test-determinism bench bench-json bench-smoke bench-e2e bench-deep chaos-smoke soak soak-smoke e2e-smoke obs-smoke fuzz-smoke vet lint

build:
	$(GO) build ./...

# benchmark/ is a nested module: `go vet ./...` at the root never reaches
# it, so vet it (with and without its bench tag) on its own.
lint:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	cd benchmark && $(GO) vet . && $(GO) vet -tags bench .

vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet . && $(GO) vet -tags bench .

test: vet
	$(GO) build ./...
	$(GO) test ./...

# The allocator tests run ten more times: their concurrent path mix is where a
# claim racing a release would show.
test-race:
	$(GO) test -race ./internal/session ./internal/cdn ./internal/overlay ./internal/workload ./internal/emu ./internal/httpapi ./internal/telemetry
	$(GO) test -race -count=10 -run '^TestAllocator' ./internal/session

# test-determinism repeats the overlay's seeded random-churn suite. Its op
# schedule is a function of the seed, so a run that fails only sometimes
# means the overlay itself walks something in an unordered way (a map in
# the subscription pass did, and failed about 1 run in 100); 200 runs catch
# such a walk with high probability.
test-determinism:
	$(GO) test -count=200 -run '^TestRandomChurnInvariants$$' ./internal/overlay

# e2e-smoke starts `telecast-node serve` on loopback (race-instrumented),
# replays a catalog scenario against it over the wire, and fails unless the
# client's acceptance counters match the server's /metricz totals and the
# SIGTERM drain exits cleanly.
e2e-smoke:
	./scripts/e2e_smoke.sh

# obs-smoke starts `telecast-node serve` with telemetry armed (race-
# instrumented), scrapes /metrics mid-churn while a replay runs, and fails
# unless the scraped telemetry deltas reconcile with the /metricz totals
# (replay -obs-verify) and /debug/slowops answers with captured entries.
obs-smoke:
	./scripts/obs_smoke.sh

# fuzz-smoke fuzzes each target of the op-path wire codec for FUZZ_TIME
# against its encoding/json oracle (internal/httpapi/codec_fuzz_test.go).
# The seed corpus under internal/httpapi/testdata/fuzz runs in every
# `go test`; a failing input the fuzzer finds is written there too.
FUZZ_TARGETS = FuzzDecodeWireRequest FuzzDecodeBatchRequest FuzzDecodeBatchResponse FuzzEncodeDecoded FuzzEncodeValues
FUZZ_TIME = 10s

fuzz-smoke:
	for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZ_TIME) ./internal/httpapi || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchmem -run='^$$' $(BENCH_PKGS)

# bench-e2e runs the end-to-end instrument BENCHMARK.json declares, every
# workload; bench-deep only the in-process deep-tree one. BENCH_ARGS passes
# flags through (e.g. BENCH_ARGS='-repeat 3').
bench-e2e:
	bash benchmark/run.sh $(BENCH_ARGS)

bench-deep:
	bash benchmark/run.sh -workload deep.local-single $(BENCH_ARGS)

# bench-json runs the hot-path microbenchmarks at full precision and writes
# the machine-readable trajectory file the repo checks in.
bench-json:
	$(GO) test -bench='$(HOT_BENCH)' -benchmem -run='^$$' $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -out BENCH_control_plane.json

# bench-smoke is the CI gate: a short run of every hot-path benchmark with
# allocation accounting, parsed into JSON so a build error, a FAIL line, or
# unparseable output all fail loudly, plus a throughput regression guard
# against the checked-in trajectory. A handful of iterations (not 1x) keeps
# the guarded joins/s out of cold-start noise so the 25% floor means a real
# regression. The JSON is uploaded as an artifact.
bench-smoke:
	$(GO) test -bench='$(HOT_BENCH)' -benchtime=5x -benchmem -run='^$$' $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -out BENCH_smoke.json \
			-baseline BENCH_control_plane.json -guard '$(GUARD_BENCH)' -max-regress $(MAX_REGRESS) \
			-memguard '$(MEMGUARD_BENCH)' -max-mem-growth $(MAX_MEM_GROWTH)
	for k in 1 2 3 4 5; do \
		if [ $$((k % 2)) -eq 1 ]; then order='off on'; else order='on off'; fi; \
		for v in $$order; do \
			$(GO) test -bench="^BenchmarkJoin\$$/^telemetry=$$v\$$" -benchtime=2000x -count=1 -run='^$$' . || exit 1; \
		done; \
	done | $(GO) run ./cmd/benchjson -out /dev/null \
			-deltaguard '$(TEL_DELTA_PAIR)' -max-delta $(MAX_TEL_DELTA)

# chaos-smoke replays the outage catalog scenario — two snapshot/kill/recover
# cycles of the hot shard under region-concentrated churn — on both executors
# under the race detector, failing unless every shard recovers, the online
# validator comes back clean, and the event-stream admission count equals the
# runner's across the kill/recover boundary.
chaos-smoke:
	$(GO) test -race -run 'TestChaosSmokeOutage|TestKillRecoverMidChurnRace' -v ./internal/workload ./internal/session

# The soak tier (build tag `soak`): days of diurnal model time in which the
# audience fully turns over every cycle, heap snapshotted at day boundaries,
# failing on any post-warm-up growth. soak-smoke is the CI-sized cut.
soak:
	$(GO) test -tags soak -run 'TestSoakHeapTrajectory' -v ./internal/workload

soak-smoke:
	$(GO) test -tags soak -short -run 'TestSoakHeapTrajectory' -v ./internal/workload
