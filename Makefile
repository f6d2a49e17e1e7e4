# Developer loops for the lotuseater reproduction.
#
#   make            # build + vet + lint + test (the tier-1 gate)
#   make lint       # project analyzers (lotus-lint) over the whole module
#   make fmt        # gofmt the tree in place
#   make bench      # scenario benchmarks -> BENCH_scenarios.json
#   make bench-go   # go test figure micro-benchmarks (BenchmarkFigure)
#   make figures    # regenerate every table/figure at quick fidelity
#   make race       # race-check the whole module
#   make loc        # non-test Go lines in the module (go list-scoped)
#   make examples   # run every example program (the facade's callers), diff its output

GO ?= go
GOFMT ?= gofmt

.PHONY: all build test vet lint fmt fmt-check race bench bench-go check-stats figures list scenarios golden cover loc examples clean

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: the determinism and hot-path rules
# (detrand, maprange, allocfree) enforced by cmd/lotus-lint.
# Non-zero exit on any finding; see README "Static analysis".
lint:
	$(GO) run ./cmd/lotus-lint ./...

fmt:
	$(GOFMT) -w .

# CI gate: fail listing any file gofmt would rewrite.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Uncached, so every test (the cluster end-to-end tests and the
# worker-count parity tests included) really runs under the detector.
race:
	$(GO) test -race -count=1 ./...

# Statistical self-tests for the adaptive stopping rule: Student-t golden
# constants and the 1000-trial CI coverage check, uncached so the numbers
# are actually recomputed.
check-stats:
	$(GO) test -count=1 -run 'TestStoppingRuleCoverage' -v ./internal/adaptive
	$(GO) test -count=1 -run 'TestTCriticalGolden|TestTQuantileInvertsCDF|TestAccumulatorHalfWidth' ./internal/metrics

# Rewrite the golden CLI outputs after an intentional output change; review
# the diff like code.
golden:
	$(GO) test ./internal/cli -run Golden -update

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Registry-driven scenario benchmarks (one per substrate plus a
# 1000-replicate streaming-aggregation run), the adaptive bench (fixed
# budget vs CI-targeted replication on the three *-auto scenarios), the
# kernel bench (ns/round and allocs/round for gossip and swarm at n in
# {10k, 100k, 1m}), and the cluster bench (1-vs-2-worker distributed
# throughput through a loopback coordinator); emits BENCH_scenarios.json,
# BENCH_adaptive.json, BENCH_kernel.json, and BENCH_cluster.json for the
# performance trajectory across PRs. Each kernel row times 3 rounds right
# after a short warmup, while the swarm is still filling, as the rows of
# bench_baseline.json were; read the cluster scaling row next to its cpus
# field.
bench:
	$(GO) run ./cmd/lotus-sim scenarios bench -out BENCH_scenarios.json -adaptive-out BENCH_adaptive.json -kernel-out BENCH_kernel.json -cluster-out BENCH_cluster.json

bench-go:
	$(GO) test -run '^$$' -bench 'BenchmarkFigure' -benchmem ./

figures:
	$(GO) run ./cmd/lotus-sim figures -exp all -quality quick

list:
	$(GO) run ./cmd/lotus-sim list

scenarios:
	$(GO) run ./cmd/lotus-sim scenarios list

# The size of the program: lines in the non-test Go files of every package
# `go list ./...` builds (the bench module under bench/ is separate).
loc:
	@$(GO) list -f '{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}{{range .CgoFiles}}{{$$d}}/{{.}} {{end}}' ./... \
		| tr ' ' '\n' | grep -v '^$$' | xargs cat | wc -l

# The example programs are the facade's only callers; run each one and diff
# its stdout against examples/testdata/<name>.txt, so a facade change that
# breaks one, makes it exit non-zero, or changes what it prints fails
# loudly. After an intended output change, regenerate the pins with
#   for ex in codingdefense filesharing observation quickstart scripeconomy streaming; do
#     go run ./examples/$ex > examples/testdata/$ex.txt; done
# and review their diff like code.
EXAMPLES = codingdefense filesharing observation quickstart scripeconomy streaming

examples:
	@for ex in $(EXAMPLES); do \
		echo "== examples/$$ex"; out=$$($(GO) run ./examples/$$ex) || exit 1; \
		printf '%s\n' "$$out" | diff -u examples/testdata/$$ex.txt - || exit 1; done

clean:
	$(GO) clean ./...
