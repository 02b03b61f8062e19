# Development targets. CI (.github/workflows/ci.yml) runs `make check`.

GO ?= go

.PHONY: check fmt vet build test test-short race bench perf perf-check golden golden-update scale scale-update alloc alloc-update serve-smoke serve-load trace-smoke fuzz lint lint-external reprolint lint-fix clean

check: fmt vet build test

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# The repository benchmark (BENCHMARK.json, perfbench/README.md): one
# workload, W = topology | gossip | scale200 | service. Extra flags go
# in PERF_ARGS, e.g. `make perf W=gossip PERF_ARGS="--trace 1"`.
W ?= topology
PERF_ARGS ?=
perf:
	bash perfbench/run.sh --workload $(W) $(PERF_ARGS)

# perfbench is a nested module (repro/perfbench) that `go build ./...`
# never sees, so an API change in the internal packages can break it
# without any root test failing. This target vets and tests it against
# the checkout; CI runs it in the check job.
perf-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Golden regression corpus: every scenario preset's metrics digest is
# pinned under testdata/golden/ (see golden_test.go). `make golden`
# verifies, `make golden-update` re-records after an intentional change.
golden:
	$(GO) test -run TestGoldenCorpus -count=1 .

# Re-recorded digests are grid-only: after an update, grid ≡ scan is
# checked only by the internal/radio equivalence harness.
golden-update:
	$(GO) test -run TestGoldenCorpus -update-golden -count=1 .

# Large-N golden matrix: the scale presets (200/500 nodes) at workers 1
# and 8 (see golden_scale_test.go). Minutes of simulation — CI runs it
# in the separate `scale` job, never in the main test job.
scale:
	REPRO_SCALE=1 $(GO) test -run TestGoldenScale -count=1 -timeout 40m .

# Re-recorded like golden-update: grid-only digests.
scale-update:
	REPRO_SCALE=1 $(GO) test -run TestGoldenScale -update-golden -count=1 -timeout 40m .

# Allocation-regression tier (DESIGN.md §10): AllocsPerRun ceilings on
# the hot functions plus whole-preset budgets gated ±10% against
# testdata/alloc_budget.json. `make alloc-update` re-records the budget
# after an intentional change.
alloc:
	$(GO) test -run 'TestAlloc' -count=1 . ./internal/detect

alloc-update:
	$(GO) test -run 'TestAllocBudget' -update-alloc-budget -count=1 .

# Campaign-service smoke (scripts/serve_smoke.sh): boot cmd/manetd,
# submit the baseline preset over HTTP, assert the digest against the
# golden corpus and the /metrics counters, then SIGTERM and require a
# clean drain. CI runs it as the serve-smoke job.
serve-smoke:
	./scripts/serve_smoke.sh

# Campaign-service load harness: 1000 concurrent small campaigns across
# 8 tenants over real HTTP, asserting zero quota starvation, identical
# digests and no goroutine leak (idsbench -serve-load).
serve-load:
	$(GO) run ./cmd/idsbench -serve-load -campaigns 1000 -tenants 8

# Run-trace plane smoke (scripts/trace_smoke.sh): trace a preset twice
# with the same seed and require `reprotrace diff` to find zero
# divergences, reseed and require a reported first divergence, then
# require `reprotrace stats` to parse the trace. CI runs it as the
# trace-smoke job.
trace-smoke:
	./scripts/trace_smoke.sh

# Short local fuzz pass over the codecs, the proof verifier and the
# scenario spec front door (CI runs the same budget per target).
fuzz:
	$(GO) test -fuzz='^FuzzDecodePacket$$' -fuzztime=30s ./internal/wire
	$(GO) test -fuzz='^FuzzParseLine$$' -fuzztime=30s ./internal/auditlog
	$(GO) test -fuzz='^FuzzRecordRoundTrip$$' -fuzztime=30s ./internal/auditlog
	$(GO) test -fuzz='^FuzzVerifyInclusion$$' -fuzztime=30s ./internal/auditlog
	$(GO) test -fuzz='^FuzzBinaryRoundTrip$$' -fuzztime=30s ./internal/core
	$(GO) test -fuzz='^FuzzEventRoundTrip$$' -fuzztime=30s ./internal/trace
	$(GO) test -fuzz='^FuzzSpec$$' -fuzztime=30s ./internal/scenario

# reprolint: the in-repo determinism & hot-path analyzer suite
# (DESIGN.md §12) — detwalltime, detmapiter, detseed, allocann. Builds
# from this module with the standard library only, so it runs offline;
# exits non-zero with file:line findings grouped by analyzer.
reprolint:
	$(GO) run ./cmd/reprolint ./...

# Static analysis: reprolint first (ours, offline, enforces the
# determinism discipline), then staticcheck (correctness + style) and
# govulncheck (known-vulnerability reachability). The latter two
# resolve through `go run`, so no separately installed binary is
# needed — just network access to the module proxy on first use. CI
# runs the same sequence in the lint job.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

lint: reprolint lint-external

lint-external:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# lint-fix is a documentation stub for the two reprolint finding
# classes with a mechanical remedy; the rewrites are manual for now:
#   - sort-after-range (detmapiter): collect the map's keys or values
#     into a slice inside the range, then sort.*/slices.Sort* the slice
#     immediately after the loop (or iterate an already-sorted key
#     slice) — see internal/olsr/hello.go and detect.finalize.
#   - presized-append (allocann): replace `var s []T` + append-in-loop
#     with `s := make([]T, 0, n)` when n is known, or reuse a retained
#     scratch field truncated with s[:0] — see internal/olsr scratch.
lint-fix:
	@echo "reprolint has no auto-fixer yet; see the lint-fix comment in Makefile"
	@echo "for the manual rewrites (sort-after-range, presized-append)."

clean:
	$(GO) clean ./...
