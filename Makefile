GO ?= go

.PHONY: check vet build test race bench bench-short bench-smoke bench-json bench-big bench-big-smoke bench-compare telemetry-overhead kernel-equivalence fused-equivalence robustness cachefmt obs serve cli

# check is the tier-1 gate: everything must pass before a change lands.
# A PR that touches the kernels or the sweep should also refresh the
# dated benchmark archive with `make bench-json` and note the numbers.
check: vet build test race bench-smoke bench-big-smoke telemetry-overhead kernel-equivalence fused-equivalence robustness cachefmt obs serve cli

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race re-runs the suite under the race detector; the parallel
# evaluation engine (worker pools, singleflight table cache) is
# exercised by dedicated determinism and contention tests.
race:
	$(GO) test -race ./...

# bench runs the full benchmark harness (one bench per paper artifact
# plus the engine micro-benchmarks). Slow: tab3 alone is minutes.
bench:
	$(GO) test -bench . -benchmem ./...

# bench-short runs only the fast engine benchmarks — the tdcCost
# kernel and the serial-vs-parallel table build.
bench-short:
	$(GO) test -run '^$$' -bench 'BenchmarkTDCCostKernel|BenchmarkBuildTable' -benchmem ./internal/core

# bench-smoke compiles and runs each fast benchmark exactly once — a
# regression tripwire for the benchmark code itself, cheap enough for
# the tier-1 gate (no timing is measured at -benchtime=1x).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTDCCostKernel|BenchmarkBuildTableSerial|BenchmarkBuildTableParallel' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkGreedySchedule|BenchmarkGreedy50Cores' -benchtime 1x ./internal/sched
	$(GO) test -run '^$$' -bench 'BenchmarkOptimizeSearch' -benchtime 1x .

# bench-json archives the four headline benchmarks as a dated,
# machine-readable report (BENCH_<yyyy-mm-dd>.json): per-op time plus
# alloc stats and any custom metrics, parsed by cmd/benchjson.
bench-json:
	{ $(GO) test -run '^$$' -bench 'BenchmarkFig2CktSweep$$|BenchmarkTab3WithWithoutTDC$$|BenchmarkOptimizeSearch$$' -benchtime 1x -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkGreedySchedule$$' -benchtime 1x -benchmem ./internal/sched ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkDiskLoad$$|BenchmarkCacheGetParallel' -benchmem ./internal/core ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkServeOptimizeWarm$$' -benchmem ./internal/serve ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_$$(date +%Y-%m-%d).json
	@echo wrote BENCH_$$(date +%Y-%m-%d).json

# bench-big runs the giant-profile streaming workload: every core of a
# 48-core, million-cube design priced through the window-64 streaming
# evaluator (cubes/s, cores/s, peak heap high-water), plus the
# streamed-vs-materialized >=10x memory acceptance test. Results merge
# into the dated benchmark archive next to the bench-json headliners.
bench-big:
	SOCTAP_GIANT=1 $(GO) test -run TestStreamingPeakMemoryGiant -count=1 -v -timeout 1800s ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkStreamGiantSweep$$|BenchmarkFusedGiantTable$$' -benchtime 1x -benchmem -timeout 1800s ./internal/core \
	| $(GO) run ./cmd/benchjson -merge -o BENCH_$$(date +%Y-%m-%d).json
	@echo merged into BENCH_$$(date +%Y-%m-%d).json

# bench-big-smoke is the tier-1 slice of bench-big: the same sweep on a
# scaled-down member of the giant family, plus the window-proportional
# peak-memory gate (streamed evaluator footprint must stay O(window),
# far under the materialized whole-set footprint) and the fused-pass
# counter gate (eval.passes / eval.fused_points / window loads must be
# identical at Workers 1 and 8 on the smoke-scale giant core).
bench-big-smoke:
	$(GO) test -run 'TestStreamingPeakMemorySmoke|TestFusedCountersWorkerInvariance' -count=1 ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkStreamGiantSweep$$|BenchmarkFusedGiantTable$$' -benchtime 1x -short ./internal/core

# kernel-equivalence asserts the word-parallel kernel and sweep-pruning
# exactness contracts: both plane-building strategies agree with each
# other (forced through the one kernel preparation, including a
# dense→sparse flip mid-pass) and with the real encoder, pruned band
# winners equal an unpruned sweep's on every d695/industrial core,
# steady-state tdcCost runs at 0 allocs/op on both strategies, the
# evaluator primitives price identically at every window (including the
# window-boundary fuzz seeds), negative windows are rejected, and the
# fuzz seed corpora for the word and codec kernels still pass.
kernel-equivalence:
	$(GO) test -run 'TestKernelPathsAgree|TestKernelSteadyStateZeroAlloc|TestBuildTablePruningGoldenEquivalence|TestEvalTDCMatchesRealEncoder' -count=1 ./internal/core
	$(GO) test -run 'TestStreamingEvaluatorEquivalence|TestEvalWindowValidation|TestStreamingWindowTelemetry|FuzzStreamingWindowEquivalence' -count=1 ./internal/core
	$(GO) test -run 'FuzzWordKernels' -count=1 ./internal/bitvec
	$(GO) test -run 'FuzzEncodeDecodeRoundTrip|FuzzDecodeStream' -count=1 ./internal/selenc

# fused-equivalence asserts the exactness contracts of table pricing
# under the race detector: every table of the golden matrix (each d695
# and System1–4 core plus the decay/compressible synthetics, at windows
# auto/1/7/64/whole set × workers 1/8 × fused batch sizes 64/3) encodes
# to its checked-in digest, and fused builds are deeply equal to the
# whole-set build of the same core; the mid-pass LB/UB pruning drops
# candidates without changing the table, every fused and pruning
# counter is worker-count invariant, the steady-state fused window
# kernel runs at 0 allocs/op, and the selenc append-form ops kernel the
# evaluator delegates to agrees with the real encoder's slice cost.
fused-equivalence:
	$(GO) test -race -count=1 -timeout 600s -run 'TestStreamingTableEquivalence|TestFusedTableEquivalence|TestFusedMidPassPruning|TestFusedCountersWorkerInvariance|TestBuildTableBandBoundaries' ./internal/core
	$(GO) test -count=1 -run 'TestFusedWindowKernelZeroAlloc|TestSliceOpsMaskAgreesWithCost' ./internal/core ./internal/selenc

# robustness asserts the failure-model contracts under the race
# detector with a tight timeout: the singleflight deadlock regression
# (a poisoned cache entry would hang here, not pass), panic containment
# at the core package boundary, prompt cancellation with no goroutine
# leaks, bit-identical results through the context-threaded entry
# points, disk-store fault injection, and malformed-design rejection.
robustness:
	$(GO) test -race -count=1 -timeout 300s -run 'TestCacheGetPanicNoDeadlock|TestCacheWaiterCancelPromptly|TestCacheDeterministicErrorCached|TestForEachEvalPanicContained|TestBuildTableContextCancelled|TestSweepTDCContextCancelled|TestOptimizeCancelMidRun|TestOptimizeContextMatchesOptimize|TestStoreDiskTableFaultInjection|TestDiskCacheShortEntryIsCorrupt' ./internal/core
	$(GO) test -race -count=1 -timeout 60s -run 'TestParseRejectsMalformedDesigns|TestValidateStructuralBounds|TestMalformedDesignNeverReachesKernels' ./internal/soc

# cachefmt asserts the cache-format and cache-tier contracts: the v2
# container round-trips byte-exactly against the checked-in golden file
# and rejects corruption (tablecodec golden/rejection/fuzz-seed tests),
# v2 entries round-trip bit-identical tables on every d695/industrial
# core, the disk store honours its size bound (stray flat files from
# the pre-shard layout included), and the sharded cache keeps
# singleflight/LRU semantics under the race detector.
cachefmt:
	$(GO) test -run 'TestGoldenV2|TestHeaderRejection|TestVerifyCatchesTruncation|TestRoundTrip|TestDecodeArbitraryPrefixNeverPanics|FuzzTableCodecRoundTrip' -count=1 ./internal/tablecodec
	$(GO) test -run 'TestFormatV2MatchesV1OnBenchmarks|TestDiskCacheRoundTrip|TestDiskCacheBitFlipNeverPanics|TestDiskCacheSizeBound|TestDiskCacheSizeBoundCountsFlatFiles' -count=1 ./internal/core
	$(GO) test -race -count=1 -timeout 120s -run 'TestCacheShardedConcurrency|TestCacheShardSpread|TestCacheMemBound|TestCacheMemBoundEvictsLRU' ./internal/core

# telemetry-overhead asserts the zero-overhead-when-disabled contract:
# the instrumented-but-disabled kernel and makespan paths must run at 0
# allocs/op (test-enforced), the disabled-path benchmark must still
# compile and run, and the telemetry package itself must be vet-clean.
telemetry-overhead:
	$(GO) vet ./internal/telemetry
	$(GO) test -run 'TestKernelDisabledTelemetryZeroAlloc|TestMakespanDisabledTelemetryZeroAlloc|TestNilFastPathAllocs' -count=1 ./internal/core ./internal/telemetry
	$(GO) test -run '^$$' -bench 'BenchmarkTDCCostKernelDisabled|BenchmarkTDCCostKernelTelemetry' -benchtime 1x -benchmem ./internal/core

# obs asserts the observability-plane contracts: the disabled histogram
# record path and the subscriber-free publish path run at 0 allocs/op
# (test-enforced), the /metrics exposition matches its golden
# byte-for-byte, the event bus never blocks publishers (including
# against a stalled /events client) and survives the race detector, the
# histogram observation counts are worker-count invariant on d695, and
# the benchjson compare heuristics hold.
obs:
	$(GO) test -race -count=1 -timeout 300s -run 'TestBus|TestSubscriptionCloseRace|TestEvent|TestSpanHook|TestSinkClose|TestHistogram|TestBucketBounds|TestWriteOpenMetricsGolden|TestMetricsAndHealthzEndpoints|TestShutdownCancelsStreams|TestParseKinds' ./internal/telemetry
	$(GO) test -count=1 -run 'TestHistogramEnabledZeroAlloc|TestNilFastPathAllocs|TestBusNoSubscribersIsFree' ./internal/telemetry
	$(GO) test -race -count=1 -timeout 600s -run 'TestHistogramCountInvariance' ./internal/core
	$(GO) test -count=1 ./cmd/benchjson

# serve asserts the optimization-service contracts under the race
# detector: the end-to-end socserve suite (job queue admission bounds,
# per-request deadline cancellation mid-build, per-tenant rate
# limiting, singleflight table sharing across concurrent identical
# designs, NDJSON progress streaming, graceful drain with no goroutine
# leaks) plus the HTTP/cache hardening regressions this plane stands on
# (non-Flusher event streaming, slowloris header reaping, write-timeout
# exemption for streams, disk-cache touch-error accounting).
serve:
	$(GO) test -race -count=1 -timeout 300s ./internal/serve ./cmd/socserve
	$(GO) test -race -count=1 -timeout 120s -run 'TestEventsNonFlusherWriter|TestStalledHeaderReadReaped|TestEventsStreamSurvivesWriteTimeout' ./internal/telemetry
	$(GO) test -count=1 -run 'TestDiskStoreTouchErrorCounted' ./internal/core

# cli asserts the command-line contracts under the race detector: the
# shared cache-flag rules (a bad byte size or -table-cache-size without
# -table-cache is a usage error), the run epilogue's exit codes and
# report rules, socopt's warm -table-cache rerun (same plan, every table
# a disk hit, none built), and socopt and repro under a cancelled
# context (exit 130 with a run.cancelled-marked telemetry report).
cli:
	$(GO) test -race -count=1 ./internal/cli ./cmd/socopt ./cmd/repro

# bench-compare diffs the two most recent dated benchmark archives
# (BENCH_*.json at the repository root), failing on any directional
# metric that regressed by more than 10%. Run `make bench-json` first
# on both commits being compared.
bench-compare:
	@set -- $$(ls BENCH_*.json 2>/dev/null | sort | tail -2); \
	if [ $$# -lt 2 ]; then echo "bench-compare: need two BENCH_*.json archives (run make bench-json)"; exit 1; fi; \
	echo "benchjson -compare $$1 $$2"; \
	$(GO) run ./cmd/benchjson -compare $$1 $$2 -threshold 0.10
