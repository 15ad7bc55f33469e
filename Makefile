# Developer and CI entry points. `make` (or `make ci`) is the gate every
# change must pass: vet, the external linters (when installed), the
# repo's own analyzer suite (banlint), build, the full test suite, a
# race-detector pass, the coverage floors and the example programs.

GO ?= go

.PHONY: ci vet lint banlint lint-fixtures build test race cover cover-lint mactest examples fma-check bench bench-snapshot bench-check bench-module ab soak resume-check fuzz sweep-demo loc

ci: vet lint banlint lint-fixtures build test race cover cover-lint mactest examples fma-check bench-check bench-module soak resume-check

vet:
	$(GO) vet ./...
	$(GO) vet -tags dispatchprobe ./internal/...

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
	internal/fault:90 internal/runner:95 internal/battery:90 internal/app:96 \
	internal/mcu:98 internal/ecg:95 internal/asic:99 \
	internal/tinyos:96 internal/radio:85 internal/energy:89

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

# The programs under examples/ are the library's worked walkthroughs.
# `make build` only compiles them; run each one and fail on a non-zero
# exit, so an API change that breaks one at run time shows up here.
examples:
	@for d in examples/*/; do \
		$(GO) run ./$$d >/dev/null || { echo "examples: $$d failed"; exit 1; }; \
		echo "examples: $$d ok"; \
	done

# The same numbers on every CPU. arm64, ppc64le, s390x and riscv64 have
# fused multiply-add instructions, which round x*y + z once where amd64
# (which never fuses) rounds twice, so a fused model would give another
# slot instant or energy for the same seed there. Cross-build each CLI
# that runs the model for each of them and fail on any fused instruction
# (FMADDD, FNMSUB, ...; MADBR and MSDBR on s390x) in a repro/internal
# function. Write float64(x*y) + z to keep the two roundings. It needs
# only the local toolchain: nothing runs on the target.
FMA_ARCHES = arm64 ppc64le s390x riscv64
FMA_CMDS = tables soak bansim

fma-check:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; fail=0; \
	for arch in $(FMA_ARCHES); do for cmd in $(FMA_CMDS); do \
		GOARCH=$$arch $(GO) build -o "$$dir/$$cmd" ./cmd/$$cmd || exit 1; \
		found=$$($(GO) tool objdump "$$dir/$$cmd" | awk ' \
			/^TEXT / { fn = $$2 } \
			fn ~ /^repro\/internal\// && $$4 ~ /^(FN?M(ADD|SUB)|M[AS][DE]BR?$$|WFN?M[AS][DE]B$$)/ { print "  " fn, $$1, $$4 }'); \
		if [ -n "$$found" ]; then echo "fma-check: fused multiply-adds in $$cmd for $$arch:"; echo "$$found"; fail=1; fi; \
	done; done; \
	if [ $$fail -eq 0 ]; then echo "fma-check: no fused multiply-adds in repro/internal on $(FMA_ARCHES)"; fi; \
	exit $$fail

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

# Paired A/B timing of two revisions on the end-to-end benchmark
# (cmd/abpair): both trees are extracted with git archive and built
# once, every exact work count and the fingerprint must agree under
# --trace 1, and PAIRS alternating pairs per workload report each
# end-to-end metric's median, quartiles and win count. Quote its output
# for a performance claim:
#
#     make ab A=HEAD~1 B=HEAD WORKLOADS=rpeak-onnode SEED=7
#
WORKLOADS = all
PAIRS = 10
SECONDS = 6
SEED = 1

ab:
	@if [ -z "$(A)" ] || [ -z "$(B)" ]; then \
		echo "usage: make ab A=<rev> B=<rev> [WORKLOADS=w1,w2] [PAIRS=10] [SECONDS=6] [SEED=1]"; exit 2; \
	fi
	$(GO) run ./cmd/abpair -a $(A) -b $(B) -workloads $(WORKLOADS) -pairs $(PAIRS) -seconds $(SECONDS) -seed $(SEED)

# The chaos soak corpus (README "Auditing & soak testing"): 3000 fixed
# seeds, each a randomized scenario run on both schedulers with every
# runtime invariant audited plus the wheel-vs-heap differential oracle.
# On failure cmd/soak shrinks the scenario to a minimal reproducer
# (soak_repro_<seed>.json) and exits non-zero. The corpus is pinned —
# same seeds every run — so CI is deterministic; rotate it by bumping
# SOAK_START (e.g. to the PR number times 1000) when the fixed range has
# been mined out, and widen it locally with SOAK_SEEDS for deeper runs.
# The corpus runs in 20-30 s on a 2-vCPU host; the budget keeps twice
# that, because an expired budget ends the run early without failing.
SOAK_SEEDS = 3000
SOAK_START = 1

soak:
	$(GO) run ./cmd/soak -seeds $(SOAK_SEEDS) -start $(SOAK_START) -budget 60s -q
	$(GO) test -count=1 -run TestHandOffsMatchReference ./internal/core -reference-seeds $(SOAK_SEEDS)

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
# excluded), then their sum: the "least code" number that sits next to
# ns/event. The CLIs under cmd/ follow as a separate subtotal, outside
# that sum.
loc:
	@total=0; \
	for d in $$(find internal -type d -not -path '*/testdata*' | sort); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		[ $$n -gt 0 ] && printf '%6d  %s\n' $$n $$d; \
		total=$$((total + n)); \
	done; \
	printf '%6d  total\n' $$total; \
	n=$$(find cmd -name '*.go' ! -name '*_test.go' -not -path '*/testdata/*' -exec cat {} + | wc -l); \
	printf '%6d  cmd/\n' $$n

# Quick eyeball check of the parallel sweep path.
sweep-demo:
	$(GO) run ./cmd/sweep -mode cycle -duration 5s -progress
