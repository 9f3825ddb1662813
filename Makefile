# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so a green `make check bench-gate` locally means
# a green pipeline.

# pipefail so `go test | tee` recipes fail when the test run fails, not just
# when tee does.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# The benchmarks the regression gate watches: join pipeline, the five
# learner fits, the serving paths, the SVM Gram build, the GEMM-vs-scalar
# batched ANN serving pair, the tree's constant-feature skip, the
# segmented-vs-slab parity pair, and the concurrent-serving trio (MLP
# gather vs factorized-linear vs the hardened entry — admission gate + panic
# recovery — under 64 clients). cmd/benchgate's
# defaultGate must match it; a benchgate test reads this line to check.
BENCH_REGEX = Benchmark(Join(Materialized|View)|(NBFit|TreeSplit|LogRegFit|SVMFit|ANNFit)Columnar|Serve(Factorized|Joined)|SVMKernelCacheGemm|ServeBatch(Scalar|Gemm)|TreeSplitZoneSkip|SegParScan(Slab|Seg)|ServeConcurrent(Scalar|Factorized|Hardened))$$
# Time-based benchtime so every bench accumulates several iterations per
# sample — the nanosecond-scale Serve* benches get millions, the ~100ms Fit
# benches get a handful — and -count 5 gives benchgate a median that shrugs
# off scheduler spikes. The full sweep takes ~2 minutes on one core.
BENCH_FLAGS = -run xxx -bench '$(BENCH_REGEX)' -benchtime 1s -count 5 -benchmem .

.PHONY: check test bench bench-baseline bench-gate lint arm64-unfused amd64-unfused fuzz-smoke load

check: lint test

test:
	go build ./... && go test ./...

bench:
	go test $(BENCH_FLAGS)

# bench-baseline refreshes the committed regression baseline. Run it on a
# quiet machine after a deliberate performance change, commit the result, and
# mention the change in the PR so reviewers know the bar moved. The absolute
# ns/op comparison assumes baseline and gate run on comparable hardware —
# refresh the baseline from a CI run's bench_current.txt artifact if the
# runner class changes (the within-run pair-speedup check is
# machine-independent either way).
bench-baseline:
	go test $(BENCH_FLAGS) | tee bench_baseline.txt

# bench-gate reproduces CI's benchmark-regression gate: >20% median ns/op
# regression on any gated benchmark vs bench_baseline.txt fails, as does any
# pair group without a winner — segment-per-task scan parity at >=0.95x vs
# the single-slab scan — and so does any non-zero allocs/op on the
# factorized-linear and hardened serving paths.
#
# BENCH_JSON=<path> additionally writes the gated medians (ns/op, allocs/op)
# as a machine-readable JSON digest — the committed BENCH_<n>.json artifacts.
bench-gate:
	go test $(BENCH_FLAGS) | tee bench_current.txt
	go run ./cmd/benchgate -baseline bench_baseline.txt -current bench_current.txt $(if $(BENCH_JSON),-json $(BENCH_JSON))

# load runs the closed-loop serving load harness against a freshly trained
# artifact: train Naive Bayes on the Movies sample, start hamletd, drive it
# at the default 64 connections for a short burst, and print the latency
# quantiles, throughput and allocation rate.
# Override duration/conns with LOAD_FLAGS="-duration 30s -conns 128"; the
# default -scrape adds the server's own /metrics view: counter deltas and
# bucket-derived latency quantiles next to the client-side percentiles.
LOAD_FLAGS = -duration 3s -warmup 500ms -scrape
load:
	go build -o . ./cmd/hamletd ./cmd/hamletload ./cmd/hamlet
	./hamlet -train -dataset Movies -spec "NaiveBayes(BFS)" -scale 64 -model /tmp/load_model.bin
	./hamletd -model /tmp/load_model.bin -addr 127.0.0.1:8099 & \
	  HPID=$$!; trap "kill $$HPID" EXIT; sleep 0.3; \
	  ./hamletload -addr 127.0.0.1:8099 $(LOAD_FLAGS)

lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	go vet ./...
	GOARCH=arm64 go build ./...
	GOARCH=arm64 go vet ./internal/mat ./internal/ann ./internal/svm
	$(MAKE) arm64-unfused
	$(MAKE) amd64-unfused
	@if command -v staticcheck >/dev/null; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi

# Go may fuse `x*y + z` into one rounding on arm64, so every product that
# feeds an add is wrapped in float64(...), which forbids fusion. This fails
# if a fused multiply-add reappears in this module's arm64 code: the two
# binaries, and the test binaries of the packages whose bit-identity oracles
# and tolerance tests do float arithmetic.
UNFUSED_TESTS = mat ann svm nb linear tree ml
arm64-unfused:
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	GOARCH=arm64 go build -o "$$dir/hamlet" ./cmd/hamlet; \
	GOARCH=arm64 go build -o "$$dir/hamletd" ./cmd/hamletd; \
	for p in $(UNFUSED_TESTS); do GOARCH=arm64 go test -c -o "$$dir/$$p.test" ./internal/$$p; done; \
	fused=$$(for b in hamlet hamletd $(addsuffix .test,$(UNFUSED_TESTS)); do go tool objdump "$$dir/$$b"; done | \
		awk '/^TEXT /{sym=$$2} /FMADDD|FMSUBD|FNMADDD|FNMSUBD/ && sym ~ /^repro\//{print sym}' | sort -u); \
	if [ -n "$$fused" ]; then echo "fused multiply-adds in:"; echo "$$fused"; exit 1; fi

# The amd64 assembly bodies must round every product before its add, as the
# Go loops they replace do: this fails if any of them names a fused
# multiply-add or multiply-subtract mnemonic outside a comment.
amd64-unfused:
	awk '{ sub(/\/\/.*/, "") } /VFN?M(ADD|SUB)/ { print FILENAME ":" FNR ": " $$0; bad = 1 } END { exit bad }' internal/mat/*_amd64.s

# fuzz-smoke executes the committed fuzz corpora plus a short randomized
# burst for each fuzzer — the same step CI runs.
fuzz-smoke:
	go test ./internal/model -run xxx -fuzz 'FuzzCodecRoundTrip$$' -fuzztime 20s
	go test ./internal/model -run xxx -fuzz 'FuzzDecodeGarbage$$' -fuzztime 20s
	go test ./internal/relational -run xxx -fuzz 'FuzzColumnarEquivalence$$' -fuzztime 20s
	go test ./internal/relational -run xxx -fuzz 'FuzzSegmentedEquivalence$$' -fuzztime 20s
	go test ./internal/mat -run xxx -fuzz 'FuzzMatEquivalence$$' -fuzztime 20s
	go test ./internal/relational -run xxx -fuzz 'FuzzReadCSV$$' -fuzztime 20s
	go test ./internal/relational -run xxx -fuzz 'FuzzJoinViewMatchesMaterialized$$' -fuzztime 20s
