GO ?= go

.PHONY: build test vet fmt race check leakcheck serve-check bench-smoke bench-pair bench-serve bench-guard lint-deprecated fuzz cover

build:
	$(GO) build ./...

# A hung cancellation path would otherwise stall CI forever; every test
# invocation gets a hard timeout.
test:
	$(GO) test -timeout 120s ./...

vet:
	$(GO) vet ./...

# Formatting gate: any file gofmt would rewrite fails the build.
fmt:
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }

# A query is one executor goroutine; what runs concurrently with it — the
# service's other queries and admission governor, monitor goroutines
# reading the atomic Stats and the plan's compile-time links
# (TestSnapshotsWhileDraining), the data.BatchSize knob writes
# (TestBatchSizeKnobStartRace) — runs under the race detector here; this
# is the gate CI runs (vet + plain tests + race tests).
race:
	$(GO) test -race -timeout 120s ./...

# Repeatedly run the cancellation / fault-injection / lifecycle suite
# under the race detector: leaked goroutines, unreleased spill
# descriptors and claim races show up here before they flake elsewhere.
leakcheck:
	$(GO) test -race -count=3 -timeout 120s \
		-run 'Cancel|SpillFault|FaultFS|CloseErrors|StartRace|Leak' \
		./internal/exec/ ./internal/vfs/ .

# The qpi-server service layer under the race detector: admission
# governor stress (grant-sum invariant), plan-cache concurrency,
# httptest-driven endpoint lifecycle, and the churn goroutine/FD leak
# check. `make race` covers these too; this is the focused gate for
# service work.
serve-check:
	$(GO) test -race -count=1 -timeout 300s ./internal/service/
	$(GO) test -race -count=1 -timeout 300s -run 'TestPrepare|TestWithSpillFS|TestServe' .

# The pre-option-style entry points (RunContext/StartContext), the
# row-batch engine (its option, its pull contract, its hooks and its
# estimator shape), the two single-join probe fast paths the lane
# kernel replaced (the same loop written twice) and the morselized
# partition pass (its setters, its claim source, its worker-indexed hooks
# and its sharded estimator shape), and the row-at-a-time leftovers the
# lane scan and the group-at-a-time budgeted pass replaced (the scan's
# row-batch reader, the per-row budgeted partition append and spill
# append), and the row-major copy of a stored table the lanes replaced
# (its blocks, the scan's row buffer, the iterator's sample-prefix query),
# and the chain link's build width the join output map replaced, and
# mid-query re-optimization (its run option and counters, its sketches,
# the join's restructuring seams, the Reorder wrapper and the difftest
# modes), and the hash join's tuple-at-a-time grace passes (its per-tuple
# partition hooks, its probe cursor, the Columnar switches of the join and
# the sort, and the chain check that chose between per-tuple and span
# estimator hooks), and the tuple input passes of the hash aggregation and
# the sort (the aggregation's per-row group-count hook and the sort's
# choice between a tuple and a column-batch input pass), and the spill
# files' seek operation (replaced by positional I/O), and the hash
# aggregation's row-backed emission (its per-group tuples, the row-batch
# emit helper) and the tuple sort helper only its self-test called, and
# the tuple pull contract (every operator's Next method, the hash join's
# row driver, the column adapter over Next, the two-contract plan walk and
# drain, difftest's tuple modes), and the per-tuple observation hooks the
# column-batch hooks replaced (the nested-loops join's inner and outer
# tuple hooks, the chain link's per-tuple build setter and the check that
# chose it, the row cache a read wrote into a lane batch, and any
# operator hook field that takes a data.Tuple) are removed;
# nothing anywhere in the repo may reference them, so stray revivals in
# merges get caught here.
lint-deprecated:
	@bad=$$(grep -rn --include='*.go' --exclude-dir=.bench_build -E '\.(RunContext|StartContext|NextBatch|Block|Columnar)\(|\) Next\(\) \(data\.Tuple, error\)|\<(storage\.Block|InSample|rowBuf|WithBatchExecution|RunBatch|AsBatch|DrainBatch|OnBuildBatch|OnProbeBatch|BatchAttached|observeProbeColFast|observeProbeColShardFast|SetMorselWorkers|SetMorselBlocks|Morseled|MorselSource|OnBuildColBatch|OnProbeColBatch|ColShardAttached|ObserveProbeColShard|FinishProbe|composeColW|ModeColMorsel|colPartitionAppend|appendColRow|BuildWidth|WithReoptimization|ReoptOptions|PlanChanges|ReoptStats|Reoptimizer|SwapSides|Relink|ReplaceProbe|ResetObservers|OnBeforePartition|PartitionStarted|ReattachChain|AttachSketches|NewReorder|ModeReopt(Columnar)?|OnBuildTuple|OnProbeTuple|nextProbeInPartition|chainColumnar|OnInputGroupCount|columnarInput|OpSeek|groupTuple|emitBatch|SortTuplesByKey|advanceColRow|materializeColRow|colAdapter|AsColOperator|ColOperator|WalkColumnar|DrainCol|ModeTuple|OnInnerTuple|OnOuterTuple|SetBuildHook|ColAttached|MaterializeRows)\>|\<qpi_reopt_|\<On[A-Z][A-Za-z]* +func\(data\.Tuple\)' . || true); \
	if [ -n "$$bad" ]; then \
		echo "removed API referenced:"; \
		echo "$$bad"; \
		exit 1; \
	fi

# Short exploratory runs of every fuzz target (go permits one -fuzz
# pattern per invocation). The corpus seeds under testdata/ run as plain
# regression tests in `make test`; this adds a few seconds of new input
# search per target.
FUZZTIME ?= 3s
fuzz:
	$(GO) test -fuzz '^FuzzParse$$'        -fuzztime $(FUZZTIME) -timeout 120s ./internal/sql/
	$(GO) test -fuzz '^FuzzChooser$$'      -fuzztime $(FUZZTIME) -timeout 120s ./internal/distinct/
	$(GO) test -fuzz '^FuzzJoinModes$$'    -fuzztime $(FUZZTIME) -timeout 120s ./internal/exec/
	$(GO) test -fuzz '^FuzzOnceExact$$'    -fuzztime $(FUZZTIME) -timeout 120s ./internal/core/
	$(GO) test -fuzz '^FuzzDifferential$$' -fuzztime $(FUZZTIME) -timeout 180s ./internal/difftest/
	$(GO) test -fuzz '^FuzzQueryModes$$'   -fuzztime $(FUZZTIME) -timeout 120s .
	$(GO) test -fuzz '^FuzzEvalSel$$'      -fuzztime $(FUZZTIME) -timeout 120s ./internal/expr/

# Statement-coverage floors on the estimator packages (measured ~88% and
# ~90%; floors sit a few points below so refactors don't flake, but a
# real coverage regression fails the build).
cover:
	@set -e; \
	check() { \
		pct=$$($(GO) test -cover -timeout 120s $$1 | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		echo "$$1 coverage: $$pct% (floor $$2%)"; \
		ok=$$(echo "$$pct $$2" | awk '{print ($$1 >= $$2) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then echo "coverage below floor"; exit 1; fi; \
	}; \
	check ./internal/core 82; \
	check ./internal/distinct 84

# The repository benchmark is a module of its own (benchmark/go.mod), so
# `go test ./...` at the root never sees it. Its tests hold the route
# users reach (Engine.Compile) to the route the traced run wires by hand
# from the internal packages: same rows and bit-identical final
# estimates (TestRoutesAgree), and every workload run once in both modes
# on half-size data (TestSmoke).
# One iteration each of the root benchmarks behind the engine workloads'
# hot halves (the lane scan, the budgeted partition pass), of the one
# pricing the compile-time pruning pass, of the one reporting a generated
# catalog's live heap, of the skewed Q8 pipeline with estimators on and
# off, of the pkfk_join query with estimators on and off, of the spilled
# join's file and I/O counts, of the join kernel's probe shapes and the
# hash aggregation's group store in internal/exec, of the filter's
# selection kernels in internal/expr, of the spill frame codec, of the
# distinct-value profile estimator and of the estimator's probe-chain
# lane hook, so none can rot unbuilt.
bench-smoke:
	cd benchmark && $(GO) test -timeout 300s ./...
	$(GO) test -run '^$$' -bench 'ScanColLanes|BudgetedScatter|CompileQ8|CatalogLiveBytes|Q8Pipeline|PKFKPipeline|^BenchmarkSpilledJoin$$' -benchtime 1x -timeout 120s .
	$(GO) test -run '^$$' -bench 'ColumnarJoin|HashAggGroups' -benchtime 1x -timeout 120s ./internal/exec
	$(GO) test -run '^$$' -bench 'EvalSel' -benchtime 1x -timeout 120s ./internal/expr
	$(GO) test -run '^$$' -bench 'EncodeColFrame|DecodeColFrame' -benchtime 1x -timeout 120s ./internal/data
	$(GO) test -run '^$$' -bench 'ProfileMLE' -benchtime 1x -timeout 120s ./internal/distinct
	$(GO) test -run '^$$' -bench 'ObserveProbeColChain' -benchtime 1x -timeout 120s ./internal/core

# Interleaved parent/change pairs of the repository benchmark, the only
# comparison this drifting box supports (ROADMAP): medians and win counts
# per metric. make bench-pair PARENT=HEAD~1 WORKLOAD=pkfk_join [PAIRS=5] [SEED=1]
PARENT ?= HEAD~1
WORKLOAD ?= pkfk_join
PAIRS ?= 5
SEED ?= 1
bench-pair:
	bash scripts/bench-pair.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED)

# BENCH_GUARD=1 adds the serving-throughput regression guard to `make
# check`. It is opt-in because wall-clock benchmarks only mean something
# on a machine comparable to the one that recorded BENCH_serve.json (and
# are pure noise on loaded CI runners).
ifeq ($(BENCH_GUARD),1)
check: vet fmt lint-deprecated test race cover fuzz bench-smoke bench-guard
else
check: vet fmt lint-deprecated test race cover fuzz bench-smoke
endif

# Drive qpi-server with 1000 concurrent HTTP streams for 10s and record
# throughput, latency percentiles, plan-cache hit rate and admission
# behaviour into BENCH_serve.json. The run also enforces the hard
# invariants (no goroutine/FD leaks, grant sum bounded by the budget).
bench-serve:
	$(GO) run ./cmd/qpi-loadtest -json

# The serve guard re-drives the load test and compares throughput/p99
# against BENCH_serve.json with a wide (50%) tolerance — serving numbers
# are noisy — after failing loudly when the current cpu/num_cpu/gomaxprocs
# don't match the baseline's recorded environment; on foreign hardware it
# skips loudly instead of guarding noise. Engine performance is judged by
# the repository benchmark (BENCHMARK.json, benchmark/run.sh), in
# interleaved paired runs against the parent commit.
bench-guard:
	$(GO) run ./cmd/qpi-loadtest -guard
