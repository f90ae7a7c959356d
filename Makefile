# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make check` is the full pre-push gate.

GO ?= go

.PHONY: build test race serve-test lint lint-baseline lint-mutations vet golden check bench perf-smoke report-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# serve-test runs the simulation-service suite under the race detector
# (DESIGN.md §9): concurrent determinism against direct Runner runs,
# single-flight collapse, cancellation partials, queue backpressure,
# graceful shutdown, the job storm, and the rack-cancellation contract
# the daemon depends on.
serve-test:
	$(GO) test -race -count=1 ./internal/serve/
	$(GO) test -race -count=1 -run 'TestRunRackCancelReturnsPartialHosts' .

# lint runs coaxlint (internal/lint): determinism, counter-hygiene, and
# observer-purity invariants, plus unitcheck's
# flow-sensitive clock-domain/dimension analysis, lockcheck's lock-set
# analysis, handlecheck's arena-handle lifetime analysis, and
# alloccheck's zero-allocation hot-path analysis (DESIGN.md §6). Findings
# listed in .coaxlint.baseline (if present) are pre-existing and accepted;
# only new violations fail. Add -json for machine-readable output.
lint:
	$(GO) run ./cmd/coaxial-lint ./...

# lint-baseline regenerates the accepted-findings baseline. Run it only
# after deliberately accepting current findings, and review the diff.
lint-baseline:
	$(GO) run ./cmd/coaxial-lint -write-baseline ./...

# lint-mutations proves the analyzers still catch what they exist to
# catch: each suite plants real bugs (dimension slips, dropped unlocks,
# reordered arena releases, deleted ownership annotations, hot-path
# allocations) into the shipping sources via a load-time overlay and
# fails if any survive.
lint-mutations:
	$(GO) test -count=1 -run 'TestUnitCheckMutations|TestLockCheckMutations|TestHandleCheckMutations|TestAllocCheckMutations' ./internal/lint/

# golden regenerates the golden result corpus after an intentional change
# to simulated numbers. Review the testdata/golden diff like code.
golden:
	$(GO) test -run TestGoldenResults -update .

# bench regenerates the performance snapshot (BENCH_OUT) in the
# BENCH_pr<N>.json schema via cmd/coaxial-bench: per-step benchmarks at a
# fixed iteration count, experiment-window and warm capture/restore
# benchmarks repeated so the fastest (least noise-polluted) run is
# recorded. Override BENCH_PR / BENCH_NOTE / BENCH_OUT when cutting a new
# snapshot; keep the note honest about what changed and how the numbers
# were taken.
BENCH_PR   ?= 14
BENCH_OUT  ?= BENCH_pr$(BENCH_PR).json
BENCH_BASE ?= BENCH_pr13.json
BENCH_NOTE ?= regenerated locally; see the checked-in snapshot for the PR-cut note
bench:
	@( $(GO) test -run '^$$' -bench 'BenchmarkSystemStep(Idle|Loaded)$$' -benchtime 2000000x -benchmem . ; \
	   $(GO) test -run '^$$' -bench 'BenchmarkRunWindow$$|BenchmarkRunWindowLoaded$$|BenchmarkRunWindowLoadedSampled$$|BenchmarkRunWindowPooled$$|BenchmarkRunWindowRack$$' -benchtime 15x -count 2 -benchmem . ; \
	   $(GO) test -run '^$$' -bench 'BenchmarkCaptureWarm$$|BenchmarkWarmRestore$$' -benchtime 20x -count 3 -benchmem . ) \
	 | tee /dev/stderr \
	 | $(GO) run ./cmd/coaxial-bench -pr $(BENCH_PR) -baseline $(BENCH_BASE) -note '$(BENCH_NOTE)' > $(BENCH_OUT)
	@echo wrote $(BENCH_OUT)

# perf-smoke is CI's hot-path regression tripwire: the loaded-window and
# 2-host rack-window benchmarks at reduced iterations must stay within 2x
# of a checked-in snapshot, in both time and (via -benchmem) allocations
# per op. Deliberately loose so scheduler noise does not flake the build.
# The loaded reference stays BENCH_pr10.json: BENCH_pr13.json was cut on
# a slower host, and checking against it would loosen the gate. The rack
# reference is BENCH_pr14.json, the first snapshot with the rack window
# on the sequential host phase.
perf-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkRunWindowLoaded$$' -benchtime 3x -count 2 -benchmem . \
	 | $(GO) run ./cmd/coaxial-bench -check BENCH_pr10.json -factor 2 -alloc-factor 2
	$(GO) test -run '^$$' -bench 'BenchmarkRunWindowRack$$' -benchtime 3x -count 2 -benchmem . \
	 | $(GO) run ./cmd/coaxial-bench -check BENCH_pr14.json -factor 2 -alloc-factor 2

# report-check regenerates the paper's evaluation end to end
# (coaxial-report -all -quick, one deduplicated plan), prints its wall
# time, strips the per-figure "[fig N regenerated in ...]" timing lines,
# and diffs the rendered scoreboard against the checked-in
# testdata/report/all_quick.golden. The binary and its output live in a
# temporary directory, removed on exit.
report-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && $(GO) build -o $$dir/coaxial-report ./cmd/coaxial-report && \
	 start=$$(date +%s%N) && $$dir/coaxial-report -all -quick > $$dir/all_quick.txt && end=$$(date +%s%N) && \
	 awk -v a=$$start -v b=$$end 'BEGIN { printf "coaxial-report -all -quick: %.1fs wall\n", (b-a)/1e9 }' && \
	 grep -v '^  \[fig .* regenerated in .*\]$$' $$dir/all_quick.txt | diff -u testdata/report/all_quick.golden - && \
	 echo "report-check: scoreboard matches testdata/report/all_quick.golden"

check: vet lint build test
