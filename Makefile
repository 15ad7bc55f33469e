# Developer and CI entry points. `make` (or `make ci`) is the gate every
# change must pass: vet, the external linters (when installed), the
# repo's own analyzer suite (banlint), build, the full test suite, a
# race-detector pass, and the coverage floors.

GO ?= go

.PHONY: ci vet lint banlint lint-fixtures build test race cover cover-lint mactest bench bench-snapshot bench-check bench-module soak resume-check fuzz sweep-demo loc

ci: vet lint banlint lint-fixtures build test race cover cover-lint mactest bench-check bench-module soak resume-check

vet:
	$(GO) vet ./...

# External linters. The container this runs in may not have them; skip
# with a loud warning rather than failing so `make ci` works offline.
# gofmt ships with the toolchain, so it always runs — and fails on any
# unformatted file.
lint:
	@unformatted=$$(gofmt -l . | grep -v '/testdata/' || true); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi; \
	echo "lint: gofmt clean"
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... || exit 1; \
	else \
		echo "lint: WARNING: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || exit 1; \
	else \
		echo "lint: WARNING: govulncheck not installed, skipping"; \
	fi

# The repo's own go/analysis-style suite (cmd/banlint): determinism,
# fault-safety and unit-hygiene invariants the generic linters cannot
# know about, now including the whole-program call-graph passes
# (nodetaint, hotalloc, exhaustcap). Zero unsuppressed diagnostics is
# the bar; waive a finding only with an in-source
# `//lint:allow <analyzer> <reason>` comment. The run carries a timing
# budget: the source-only loader plus call graph must stay interactive,
# so a pass over the whole module exceeding BANLINT_BUDGET_S seconds
# fails CI even when it finds nothing.
BANLINT_BUDGET_S = 60

banlint:
	@start=$$(date +%s); \
	$(GO) run ./cmd/banlint ./... || exit 1; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "banlint: completed in $${elapsed}s (budget $(BANLINT_BUDGET_S)s)"; \
	if [ $$elapsed -gt $(BANLINT_BUDGET_S) ]; then \
		echo "banlint: exceeded the $(BANLINT_BUDGET_S)s timing budget"; exit 1; \
	fi

# The analyzer suite's own test corpus: call-graph unit tests, waiver
# regression fixtures and the analysistest golden packages under
# internal/lint/*/testdata. `make test` includes these; this target runs
# them alone for analyzer work.
lint-fixtures:
	$(GO) test ./internal/lint/...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The runner executes many simulations concurrently and the fault
# injector reaches into MAC state machines mid-run; keep the whole tree
# race-clean, not just the packages that were racy once.
race:
	$(GO) test -race ./...

# Statement-coverage floors for the packages carrying the model's
# correctness weight (set just under their current levels; raise them as
# coverage grows, never lower them to make a change pass).
COVER_FLOORS = internal/core:78 internal/mac:88 internal/metrics:75 \
	internal/fault:90 internal/runner:95 internal/battery:90

cover:
	@for spec in $(COVER_FLOORS); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		out=$$($(GO) test -cover ./$$pkg) || { echo "cover: tests failed in ./$$pkg"; echo "$$out"; exit 1; }; \
		case "$$out" in \
		*"[no test files]"*) echo "cover: ./$$pkg has a floor but no test files"; exit 1;; \
		esac; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage line for ./$$pkg:"; echo "$$out"; exit 1; fi; \
		echo "cover: ./$$pkg $$pct% (floor $$floor%)"; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit !(p+0 >= f+0) }' || \
			{ echo "cover: ./$$pkg fell below its $$floor% floor"; exit 1; }; \
	done

# Aggregate statement-coverage floor for the analyzer layer: the suite
# is the thing standing between the simulation cone and nondeterminism,
# so its own tests must exercise it thoroughly. Measured as one merged
# profile across every internal/lint package (the per-package numbers
# vary — the driver and fixtures pull each other's code).
LINT_COVER_FLOOR = 85

cover-lint:
	@profile=$$(mktemp); \
	$(GO) test -coverprofile=$$profile -coverpkg=./internal/lint/... ./internal/lint/... >/dev/null || \
		{ echo "cover-lint: tests failed"; rm -f $$profile; exit 1; }; \
	pct=$$($(GO) tool cover -func=$$profile | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	rm -f $$profile; \
	if [ -z "$$pct" ]; then echo "cover-lint: no total coverage line"; exit 1; fi; \
	echo "cover-lint: internal/lint aggregate $$pct% (floor $(LINT_COVER_FLOOR)%)"; \
	awk -v p="$$pct" -v f="$(LINT_COVER_FLOOR)" 'BEGIN { exit !(p+0 >= f+0) }' || \
		{ echo "cover-lint: internal/lint fell below its $(LINT_COVER_FLOOR)% floor"; exit 1; }

# The MAC conformance kit (DESIGN.md section 14): every registered
# protocol must pass join convergence, the audit laws, fault resilience,
# the degradation cascade, determinism and worker invariance, plus the
# cross-protocol differential property. `make test` already includes it;
# this target runs it alone, verbosely, for MAC work.
mactest:
	$(GO) test -v -run TestConformance ./internal/mac/mactest

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The committed kernel-performance trajectory (README "Performance"):
# BENCH_<pr>.json snapshots the simbench reference workload on both
# schedulers. bench-check is the CI gate — it reruns the workload and
# fails on a >25% ns/event regression, an allocs/event excursion, or a
# changed event count. When a PR intentionally moves the numbers (or
# changes the workload), refresh the snapshot in the same commit:
#
#     make bench-snapshot          # the "-update" flow
#
BENCH_SNAPSHOT = BENCH_10.json

bench-snapshot:
	$(GO) run ./cmd/bench -out $(BENCH_SNAPSHOT)

bench-check:
	$(GO) run ./cmd/bench -check $(BENCH_SNAPSHOT)

# The end-to-end benchmark (benchmark/README.md) is a Go module of its
# own, so the root `go vet ./...` and `go test ./...` never see it. Vet
# and smoke-test it here: it imports simulator APIs (mcu.Exec,
# tinyos.PostFn, metrics.Recorder, ...) that a change can break.
bench-module:
	cd benchmark && $(GO) vet . && $(GO) test .

# The chaos soak corpus (README "Auditing & soak testing"): 64 fixed
# seeds, each a randomized scenario run on both schedulers with every
# runtime invariant audited plus the wheel-vs-heap differential oracle.
# On failure cmd/soak shrinks the scenario to a minimal reproducer
# (soak_repro_<seed>.json) and exits non-zero. The corpus is pinned —
# same seeds every run — so CI is deterministic; rotate it by bumping
# SOAK_START (e.g. to the PR number times 1000) when the fixed range has
# been mined out, and widen it locally with SOAK_SEEDS for deeper runs.
SOAK_SEEDS = 64
SOAK_START = 1

soak:
	$(GO) run ./cmd/soak -seeds $(SOAK_SEEDS) -start $(SOAK_START) -budget 30s -q

# The resilience acceptance test (DESIGN.md section 16): a journaled
# sweep killed mid-batch and resumed with -resume must emit CSV
# byte-identical to the same sweep run uninterrupted. It builds and
# drives the real sweep binary, so it runs as its own gate rather than
# hiding inside `make test` timing.
resume-check:
	$(GO) test -v -run TestKillResumeRoundTrip ./cmd/sweep

# Continuous fuzzing of the scenario JSON loader (bounded for CI use;
# raise -fuzztime locally).
fuzz:
	$(GO) test -run xxx -fuzz FuzzLoadScenario -fuzztime 30s ./internal/core

# Non-test Go lines per internal/ package (test files and testdata
# excluded): the "least code" number that sits next to ns/event.
loc:
	@for d in $$(find internal -type d -not -path '*/testdata*' | sort); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		[ $$n -gt 0 ] && printf '%6d  %s\n' $$n $$d; \
	done; true

# Quick eyeball check of the parallel sweep path.
sweep-demo:
	$(GO) run ./cmd/sweep -mode cycle -duration 5s -progress
