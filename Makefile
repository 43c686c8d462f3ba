# Local targets mirror .github/workflows/ci.yml so `make ci` reproduces the
# pipeline exactly.

GO ?= go

.PHONY: build test race bench benchmark loc fmt fmt-check vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# bench runs the smoke benchmarks and regenerates the committed perf
# trajectory record (the same sweep CI uploads as an artifact per commit).
# -benchmem makes allocation regressions visible next to the timings — the
# fed store/graph benchmarks must report 0 allocs/op in steady state (the
# pin itself is TestAbsorbSteadyStateAllocs/TestCollectEdgesSteadyStateAllocs).
# The second ptfbench run appends the huge-1m memory-profile record — 10
# rounds, so the stored population dwarfs the ~5k participants a round
# actually changes; CI runs only the quick sweep. Run it at GOMAXPROCS >= 2:
# TestCommittedBenchRecordParses rejects a single-core record, whose
# worker-scaling columns describe the host rather than the code. The JSON
# lands in a temp file first so a failed run never truncates the committed
# record.
# -timeout 30m: the root-package table benchmarks take ~10 min on one core,
# right at go test's default 10m kill threshold.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' -timeout 30m . ./internal/fed/
	$(GO) run ./cmd/ptfbench -exp scalability -quick -json > BENCH_scalability.json.tmp
	$(GO) run ./cmd/ptfbench -exp scalability -profile huge-1m -rounds 10 -json >> BENCH_scalability.json.tmp
	mv BENCH_scalability.json.tmp BENCH_scalability.json

# benchmark runs the repository benchmark declared in BENCHMARK.json: all four
# workloads, measured then traced (~3 min). bench/ is a module of its own, so
# nothing above reaches it.
benchmark:
	bash bench/run.sh -seed 1

# loc prints the two sizes simplification work is judged by: lines of non-test
# Go and of all Go, outside bench/ (a module of its own, frozen by
# BENCHMARK.json).
loc:
	@printf 'non-test Go: %s lines\n' "$$(find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@printf 'all Go:      %s lines\n' "$$(find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)"

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

ci: fmt-check vet build race bench
