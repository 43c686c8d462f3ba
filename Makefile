# .github/workflows/ci.yml runs these targets step for step, so `make ci`
# reproduces the pipeline (its bench step additionally regenerates the
# committed BENCH_scalability.json, huge-1m line included). The comment on
# each target is the one place that says what it covers and why.

GO ?= go

# LOC_BUDGET is the ratchet on non-test Go outside bench/: `make loc`, and so
# CI, fails above it. A change that shrinks the code lowers it to the size it
# reaches; one that has to grow the code raises it in the same diff, where a
# reviewer sees the price.
LOC_BUDGET = 12915

# The packages whose concurrent paths CI runs in full (not -short) under the
# race detector, so an unsynchronised read or write fails: eval, fed, graph,
# candset, models and metrics for evaluation overlapping dispersal in
# RoundEngine.Run (the trainer's and the coordinator's), the batched scoring
# and selection engines every worker shares, fed.Waves' client waves training
# beside the server phases, the graph engine's chunked Commit and assembly
# and the graph models' per-layer chunk passes; comm for WriteFrame's pooled
# write path; coord for the HTTP coordinator's participant pools, long polls,
# concurrent uploads and the participant's event loop; tensor for the sparse
# kernels those chunk passes run; nn for the Adam update every model steps
# with; rng for the lazily seeded streams each worker derives.
RACE_FULL = ./internal/eval/... ./internal/fed/... ./internal/graph/... \
	./internal/candset/... ./internal/models/... ./internal/metrics/... \
	./internal/comm/... ./internal/coord/... ./internal/rng/... \
	./internal/tensor/... ./internal/nn/...

.PHONY: build cross test race experiments race-full fuzz-wire fuzz-kernels selftest examples bench-module bench-smoke bench benchmark equiv equiv-report loc traffic test-names fmt fmt-check vet ci

build:
	$(GO) build ./...

# cross builds the side of the tensor kernels' dispatch this host does not
# run: without avx2_amd64.go and the .s files every GEMM tile (the AVX-512
# 8×8 and AVX2 4×8 tiles' place), elementwise kernel and SpMM row is the pure
# Go body. It vets tensor (whose Dot, every scalar score's, must stay unfused
# where the compiler fuses multiply-adds), the dispatch's callers in nn, emb,
# models and metrics (whose selector skips runs through FirstAbove),
# and rng. Both commands use the installed toolchain; nothing is downloaded.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/nn/ ./internal/emb/ ./internal/models/ ./internal/metrics/ ./internal/rng/

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# experiments runs internal/experiments' full suite without the race
# detector: under -short (the race target) TestGridCellsMatchTestdata pins
# table4's cells alone, and the package is not in RACE_FULL.
experiments:
	$(GO) test ./internal/experiments/

race-full:
	$(GO) test -race $(RACE_FULL)

# fuzz-wire fuzzes the decoders a hostile peer reaches first: the frame
# reader (and, through it, every message decoder), the prediction payload
# (with the value form the round engine keeps predictions in: RoundScores
# equals decode∘encode bit for bit on any float64 score), and the
# coordinator's upload body reader over raw request bytes (every stream
# resolves once, for a hosted user, as complete, short write, dropped or
# refused), and its join handler over raw join bodies (200 with one
# MsgJoinAck frame for a session hosting the asked range, only for a body
# that is exactly one valid join frame, or 400 with one MsgError frame and
# the sessions unchanged). `go test` alone only replays their seed inputs.
# -fuzz takes one target per run, hence four commands (~65 s together).
fuzz-wire:
	$(GO) test ./internal/comm -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 15s
	$(GO) test ./internal/comm -run '^$$' -fuzz '^FuzzDecodePredictions$$' -fuzztime 15s
	$(GO) test ./internal/coord -run '^$$' -fuzz '^FuzzReadUploads$$' -fuzztime 15s
	$(GO) test ./internal/coord -run '^$$' -fuzz '^FuzzJoin$$' -fuzztime 15s

# fuzz-kernels fuzzes the dense GEMM core every nn.Dense product runs on
# against the naive loops it replaced, then the two kernels evaluation's
# scores pass through: the gathered scoring GEMM against the 4×2 kernel it
# replaced (query panels up to 131 rows) and the rank counter, in id and in
# bound order, against the naive sort, then the one scoring contract every
# client upload, dispersal and evaluation goes through: each model kind's
# one-user logit block (dense, and lazy MF and NeuMF) against its per-item
# oracle on ragged item lists, then the logit bounds evaluation prunes by
# against the scores they bound, on rows from ±0 and subnormals to overflow,
# ±Inf and NaN, then the graph engine every graph model's operators come
# from: rounds of staged users against the from-scratch Bipartite build, and
# the server's rebuild over it (absorb, stageUploads, Commit) at fuzzed worker
# counts against the oracle's fresh engine, then the Adam update every
# trained weight takes, its AVX-512, AVX2 and Go bodies against the scalar
# loops it replaced on blocks of live, subnormal, zero and non-finite
# moments, then the embedding table every MF and NeuMF client steps,
# dense and lazy, against the two table types it replaced, comparing every
# row's weights, moments and step count after each read, accumulate and
# step, and last the NeuMF tower's sparse path — ReLU and mask compression,
# the SpMM row kernel's ZMM blocks and the transposed SpMM — against the
# dense core on ReLU-sparse operands (~105 s together).
# Each GEMM, sparse and Adam input is compared across every body the host
# has (AVX-512: the 8×8 tile, the ZMM sparse kernels and the Adam body;
# AVX2; pure Go); TestGEMMDispatch logs which those are first, so the log
# says whether the AVX-512 bodies ran. A host without AVX-512 fuzzes only
# the AVX2 and Go bodies, and its test runs skip TestAdamQuotientCheck.
fuzz-kernels:
	$(GO) test ./internal/tensor -run '^TestGEMMDispatch$$' -v
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzDenseGEMM$$' -fuzztime 10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzGatherMulMat$$' -fuzztime 10s
	$(GO) test ./internal/eval -run '^$$' -fuzz '^FuzzRankCountMatchesNaive$$' -fuzztime 10s
	$(GO) test ./internal/models -run '^$$' -fuzz '^FuzzScoreBlockRagged$$' -fuzztime 10s
	$(GO) test ./internal/models -run '^$$' -fuzz '^FuzzLogitNormBound$$' -fuzztime 10s
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzIncremental$$' -fuzztime 10s
	$(GO) test ./internal/fed -run '^$$' -fuzz '^FuzzGraphRebuild$$' -fuzztime 10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzAdamUpdate$$' -fuzztime 10s
	$(GO) test ./internal/emb -run '^$$' -fuzz '^FuzzTableMatchesOracle$$' -fuzztime 10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzReLUSparseMatchesDense$$' -fuzztime 10s

# selftest is the loopback e2e smoke: coordinator + two participants over real
# HTTP must reproduce the serial in-process round loop bitwise.
selftest:
	$(GO) run ./cmd/ptfserve -selftest

# examples runs the public surface: the facade (ptffedrec.go) through each of
# examples/*/ once, output discarded, any non-zero exit failing the target
# (~25 s on two cores). Build and vet see these programs; nothing else runs them.
examples:
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# bench-module builds and tests bench/ — a module of its own that root
# `go build/vet/test ./...` never see, so a product export only bench/ uses is
# caught nowhere else — then runs the four workload shapes at two rounds.
bench-module:
	cd bench && $(GO) vet . && $(GO) test .
	bash bench/run.sh -smoke

# bench-smoke runs every benchmark of the packages below once.
# -benchmem makes allocation regressions visible next to the timings — the
# fed absorb and graph-staging benchmarks (BenchmarkAbsorb, and
# BenchmarkCollectEdges timing stageUploads on a LightGCN server) must report
# 0 allocs/op in steady state (the pins are TestAbsorbSteadyStateAllocs and
# TestCollectEdgesSteadyStateAllocs).
# -timeout 30m: the root-package table benchmarks take ~10 min on one core,
# right at go test's default 10m kill threshold.
# internal/tensor, internal/models and internal/emb carry the client wave's
# kernels: BenchmarkDenseGEMM (the NeuMF tower's products) and
# BenchmarkGatherMulMat (the scoring GEMM at the dispersal's 16 × 1024
# window), each on every tile body the host has side by side (avx512: the
# 8×8 tile, the 4×8 on the bands left; avx2: the 4×8 tile alone; go),
# BenchmarkElementwise (Adam and the vector adds, assembly and pure Go
# bodies side by side), BenchmarkFirstAbove (the selector's bulk reject scan,
# both bodies), BenchmarkSpMMRows (one LightGCN propagation layer at the
# sparse-250k shape over Zipf-skewed rows, at d = 16, 32 and 64: the SpMM row
# kernel as dispatched, without its ZMM blocks, on the Go body, and the
# per-entry loop it replaced, 0 allocs/op; the pin is
# FuzzSpMMRowsMatchOracle), BenchmarkNeuMFClientTrainBatch (one client step
# of the tower whose post-ReLU products run on the nonzeros, 0 allocs/op; the
# pins are TestNeuMFClientTrainBatchSteadyStateAllocs and
# FuzzReLUSparseMatchesDense) and BenchmarkTableStep (ns per
# stepped row on the dense and the lazy layout, 0 allocs/op; the pin is
# TestTableStepSteadyStateAllocs); internal/models' BenchmarkLightGCNTrainBatch
# times the server SGD step at the sparse-250k shape and reports B/live-row,
# the heap the model retains per live row beyond E⁰ and the readout (0
# allocs/op serially; the pins are TestLightGCNSteadyStateAllocatesNothing and
# TestLightGCNRetainedBytesPerLiveRow) and BenchmarkNGCFTrainBatch times an
# NGCF server step with its scoring warm-up at a gowalla-small-sized shape
# (720 nodes, d = 32, 3 layers, batch 256) at 1 and 2 workers (0 allocs/op
# serially; the pin is TestNGCFSteadyStateAllocatesNothing); internal/rng's BenchmarkSeed is the
# sweep behind the lazy source's cutover: a stream built and drawn from 16,
# 64, 256, 607 and 2000 times, seeded eagerly against lazily, with B/op (the
# pin is FuzzLazySourceMatchesMathRand); internal/metrics'
# BenchmarkTopKSelect and BenchmarkPushRun time the selection engine (PushRun
# against a Push per element, 0 allocs/op; the pin is
# TestPushRunSteadyStateAllocs); internal/eval's BenchmarkBlockTopK times one
# selection of dispersal's hard-half top-K engine — 16 users × 4 096 items at
# d = 16, for train-list-shaped and upload-shaped exclusion lists, 0 allocs/op
# (the pin is TestBlockTopKMatchesPushAndAllocsNothing) — and
# BenchmarkEvaluatorRank one worker's evaluation at rank-heavy's shape (a
# trained MF scorer, d = 16, 4 096 items): the BlockTopK body evaluation ran
# through before beside the rank-counting engine swept over batch ∈ {16, 64,
# 128, 256} × window ∈ {128, 256, 512}, the sweep evalUsersBatch and
# evalScoreChunk were chosen from, 0 allocs/op each (the pins are
# FuzzRankCountMatchesNaive and TestEvaluatorAllocsPerUser); internal/fed's BenchmarkMFClientRound times
# one MF client round at net-loopback's shape (d = 16, 900 items, clients
# taken in turn so their rows are cold) and reports ns/op and allocs/op (the
# pin is TestMFClientRoundSteadyStateAllocs); internal/coord's
# BenchmarkOpenPublishRound times the coordinator's per-round fan-out
# (announcing a round and publishing its dispersals) at 1, 100 and 2000
# one-user sessions with the whole population as the cohort, the cross-device
# shape, where a round looks up one host per cohort member. The cross-round schedule has
# no benchmark of its own: fed.Waves' waves run the client rounds
# BenchmarkMFClientRound times, RoundEngine.Run's server side runs the
# CloseRound phases the scalability sweep times, and the schedule's cost
# shows in the workloads' round_s.
bench-smoke:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' -timeout 30m . ./internal/fed/ ./internal/tensor/ ./internal/models/ ./internal/emb/ ./internal/rng/ ./internal/metrics/ ./internal/eval/ ./internal/coord/

# bench runs bench-smoke, then regenerates the committed perf trajectory
# record (the quick sweep CI uploads as an artifact per commit, plus the
# huge-1m line).
# The second ptfbench run appends the huge-1m memory-profile record — 10
# rounds, so the graph's population dwarfs the ~5k participants a round
# actually changes; CI runs only the quick sweep. Run it at GOMAXPROCS >= 2:
# TestCommittedBenchRecordParses rejects a single-core record, whose
# worker-scaling columns describe the host rather than the code. The JSON
# lands in a temp file first so a failed run never truncates the committed
# record.
bench: bench-smoke
	$(GO) run ./cmd/ptfbench -exp scalability -quick -json > BENCH_scalability.json.tmp
	$(GO) run ./cmd/ptfbench -exp scalability -profile huge-1m -rounds 10 -json >> BENCH_scalability.json.tmp
	mv BENCH_scalability.json.tmp BENCH_scalability.json

# benchmark runs the repository benchmark declared in BENCHMARK.json: all four
# workloads, measured then traced (~3 min). bench/ is a module of its own, so
# nothing above reaches it.
benchmark:
	bash bench/run.sh -seed 1

# equiv is the gate for a change that moves numbers on purpose, so that a
# History digest changes: it checks BASE (the parent commit by default;
# BASE=HEAD for an uncommitted change) out in a git worktree under a temp
# dir, runs ten measured sets of every workload on each side, set i on seed
# 1+i (bench/run.sh -repeat 10 -vary-seed), and then prints, per workload,
# each end-to-end metric against its bound in BENCHMARK.json (bench/run.sh
# -compare: the timings must stay within theirs) and whether the change's
# final_ndcg and attack_f1 medians lie inside the parent's [q1, q3]. It fails
# on a timing beyond its bound or a quality median outside the quartiles.
# The parent's sets are kept as bench/out/equiv-base.json beside the
# change's bench/out/repeat10-seed1.json.
# ~15-30 min on two cores; not part of `make ci`, and nothing under bench/ is
# touched but its git-ignored out/.
BASE ?= HEAD~1
EQUIV_SETS = 10
EQUIV_OUT = bench/out/repeat$(EQUIV_SETS)-seed1.json
EQUIV_QUALITY = ($$c[0].summary | map({key: "\(.workload) \(.metric)", value: .median}) | from_entries) as $$med | $$p[0].summary[] | select(.metric == "final_ndcg" or .metric == "attack_f1") | $$med["\(.workload) \(.metric)"] as $$m | "\(.workload) \(.metric): change median \($$m), parent [\(.q1), \(.q3)] \(if $$m >= .q1 and $$m <= .q3 then "inside" else "OUTSIDE" end)"
equiv:
	@tmp="$$(mktemp -d)"; \
	trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1; git worktree prune; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/base" "$(BASE)" >/dev/null || exit 1; \
	echo "== parent: $$(git rev-parse --short "$(BASE)")"; \
	(cd "$$tmp/base" && bash bench/run.sh -repeat $(EQUIV_SETS) -vary-seed) || exit 1; \
	mkdir -p bench/out && cp "$$tmp/base/$(EQUIV_OUT)" bench/out/equiv-base.json || exit 1; \
	echo "== change: this checkout"; \
	bash bench/run.sh -repeat $(EQUIV_SETS) -vary-seed || exit 1; \
	$(MAKE) --no-print-directory equiv-report

# equiv-report is equiv's verdict on the two result files it leaves, so a
# verdict can be re-read without re-running the sets.
equiv-report:
	@echo "== every end-to-end metric against its bound, parent -> change"; \
	bash bench/run.sh -compare bench/out/equiv-base.json $(EQUIV_OUT); timing=$$?; \
	echo "== the change's quality medians against the parent's [q1, q3]"; \
	quality="$$(jq -rn --slurpfile p bench/out/equiv-base.json --slurpfile c $(EQUIV_OUT) '$(EQUIV_QUALITY)')" || exit 1; \
	echo "$$quality"; \
	if echo "$$quality" | grep -q OUTSIDE || [ "$$timing" -ne 0 ]; then echo "equiv: FAIL"; exit 1; fi; \
	echo "equiv: pass"

# loc prints the two sizes simplification work is judged by — lines of non-test
# Go and of all Go, outside bench/ (a module of its own, frozen by
# BENCHMARK.json) — and fails when the first exceeds LOC_BUDGET.
GO_FILES = find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*'
loc:
	@nontest="$$($(GO_FILES) -not -name '*_test.go' -print0 | xargs -0 cat | wc -l)"; \
	printf 'non-test Go: %s lines (LOC_BUDGET %s)\n' "$$nontest" "$(LOC_BUDGET)"; \
	printf 'all Go:      %s lines\n' "$$($(GO_FILES) -print0 | xargs -0 cat | wc -l)"; \
	if [ "$$nontest" -gt "$(LOC_BUDGET)" ]; then \
		echo "non-test Go exceeds LOC_BUDGET: delete something, or raise the budget in this diff"; exit 1; \
	fi

# traffic lists the functions of the root module that no production entry
# point executes: ptfbench (every experiment), ptfserve -selftest, the four
# benchmark workloads (measured + traced), datagen -profile tiny and every
# examples/*/ program run as coverage-instrumented binaries under one
# GOCOVERDIR, and every function left at 0.0 % is printed. It is how a path's
# traffic is checked before it is optimised, kept or deleted. Informational
# (a 0 % function may be a test oracle or reached only by an error path),
# ~1.5 min, not part of `make ci`; everything it writes stays in the
# git-ignored .traffic/.
TRAFFIC = $(CURDIR)/.traffic
traffic:
	@rm -rf $(TRAFFIC) && mkdir -p $(TRAFFIC)/cov
	$(GO) build -cover -coverpkg=./... -o $(TRAFFIC)/ptfbench ./cmd/ptfbench
	$(GO) build -cover -coverpkg=./... -o $(TRAFFIC)/ptfserve ./cmd/ptfserve
	$(GO) build -cover -coverpkg=./... -o $(TRAFFIC)/datagen ./cmd/datagen
	@for d in examples/*/; do \
		echo "$(GO) build -cover -coverpkg=./... -o $(TRAFFIC)/example-$$(basename $$d) ./$$d"; \
		$(GO) build -cover -coverpkg=./... -o $(TRAFFIC)/example-$$(basename $$d) ./$$d || exit 1; \
	done
	cd bench && $(GO) build -cover -coverpkg=ptffedrec/... -o $(TRAFFIC)/ptfmark .
	GOCOVERDIR=$(TRAFFIC)/cov $(TRAFFIC)/ptfbench -exp all -quick -profile tiny > $(TRAFFIC)/ptfbench.log
	GOCOVERDIR=$(TRAFFIC)/cov $(TRAFFIC)/ptfserve -selftest > $(TRAFFIC)/ptfserve.log
	GOCOVERDIR=$(TRAFFIC)/cov $(TRAFFIC)/ptfmark -smoke > $(TRAFFIC)/ptfmark.log
	GOCOVERDIR=$(TRAFFIC)/cov $(TRAFFIC)/datagen -profile tiny > $(TRAFFIC)/tiny.csv
	@for x in $(TRAFFIC)/example-*; do \
		echo "GOCOVERDIR=$(TRAFFIC)/cov $$x"; \
		GOCOVERDIR=$(TRAFFIC)/cov $$x > $$x.log || exit 1; \
	done
	$(GO) tool covdata textfmt -i=$(TRAFFIC)/cov -o $(TRAFFIC)/all.out
	@grep -v '^ptffedrec/bench/' $(TRAFFIC)/all.out > $(TRAFFIC)/cover.out
	@$(GO) tool cover -func=$(TRAFFIC)/cover.out | awk '$$NF == "0.0%" { print $$1, $$2 }' | sort > $(TRAFFIC)/zero.txt
	@cat $(TRAFFIC)/zero.txt
	@printf '%s functions of the root module ran in none of: ptfbench -exp all -quick -profile tiny, ptfserve -selftest, ptfmark -smoke, datagen -profile tiny, examples/*\n' "$$(wc -l < $(TRAFFIC)/zero.txt)"

# test-names prints every Test, Fuzz, Benchmark and Example function of the
# root module as package:Name, sorted. Diffing it against the parent commit's
# shows which tests a change added or retired. Informational, like traffic,
# and not part of `make ci`.
test-names:
	@$(GO) test -list '.*' ./... | awk '/^(Test|Fuzz|Benchmark|Example)/ { names[n++] = $$1; next } \
		/^ok/ { for (i = 0; i < n; i++) print $$2 ":" names[i] } { n = 0 }' | sort

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet runs asmdecl over the .s files too, the AVX-512 bodies included.
vet:
	$(GO) vet ./...

ci: fmt-check vet build cross loc race experiments race-full fuzz-wire fuzz-kernels selftest examples bench-module bench
