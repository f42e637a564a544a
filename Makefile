GO ?= go

.PHONY: build test lint lint-self serve race clean bench-server perfbench perfbench-check deltacheck slowcheck faultmatrix fuzz-smoke trace-smoke cover scenariocheck corpus

# Optional analyzer subset for `make lint`, passed straight through to
# mahjongvet: `make lint RUN=atomicmix` or RUN=atomicmix,slotbalance.
RUN ?=
VETFLAGS := $(if $(RUN),-run $(RUN),)

# Total-statement coverage floor over ./internal/... — the seed baseline
# (88.8% at the time of recording) minus slack for environment noise.
COVER_FLOOR ?= 85.0

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

lint: ## go vet + gofmt + the project's own analyzer suite (docs/LINT.md); RUN=a,b selects analyzers
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then echo "gofmt needed:"; echo "$$fmt_out"; exit 1; fi
	$(GO) build -o bin/mahjongvet ./cmd/mahjongvet
	./bin/mahjongvet $(VETFLAGS) ./...

lint-self: ## mahjongvet over its own framework and driver (the linter is module code too)
	$(GO) build -o bin/mahjongvet ./cmd/mahjongvet
	./bin/mahjongvet $(VETFLAGS) ./internal/lint/... ./cmd/mahjongvet/

serve: ## run the analysis daemon on :8080
	$(GO) run ./cmd/mahjongd -addr=:8080

# SLO-gated overload smoke: an in-process mahjongd under an open-loop
# mixed workload at 0.5x/1x/2x measured capacity. Fails when interactive
# p99 blows the bound, interactive goodput at 2x drops below 80% of its
# 1x value, any accepted job wedges, or 2x overload never triggers
# admission control / shedding / auto-degradation (docs/ROBUSTNESS.md).
bench-server: ## overload load-harness smoke with SLO gates
	$(GO) run ./cmd/mahjongbench -levels 0.5,1,2 -duration 3s -calibrate 1s -slo

# perfbench measures the pipeline users run (parser → pre-analysis →
# FPG → heap modeler → main solve → clients), here layer by layer with
# tracing on. Workloads and flags are documented in perfbench/main.go.
perfbench: ## traced merge-heavy benchmark run: end-to-end and per-layer metrics
	bash perfbench/run.sh --workload merge-heavy --seed 0 --seconds 10 --trace 1

perfbench-check: ## perfbench's own self-tests (output checks, oracle, report format)
	cd perfbench && $(GO) test .

deltacheck: ## warm-vs-cold equivalence sweep for the incremental engine (docs/INCREMENTAL.md)
	$(GO) test -count=1 -run 'TestIncrementalFacade' .
	$(GO) test -count=1 ./internal/delta/ -run 'TestRewrite|TestDiff|TestCompute'
	$(GO) test -count=1 ./internal/pta/ -run 'TestIncremental'
	$(GO) test -count=1 ./internal/server/ -run 'TestDeltaJob|TestQuery'

slowcheck: ## the solver against the independent reference fixpoint, over every benchmark program
	MAHJONG_SLOWCHECK=1 $(GO) test ./internal/pta -run ReferenceSolver -v

faultmatrix: ## fault-injection matrix + shutdown/degradation tests under the race detector
	$(GO) test -race ./internal/server/ -run 'TestFaultMatrix|TestShutdown|TestDegraded' -v
	$(GO) test -race ./internal/faultinject/ ./internal/pta/ -run 'TestFire|TestCombinator|TestTimes|TestSetAndClear|TestOnStage|TestMutator|TestSolveContext|TestSolveClean'

fuzz-smoke: ## 10-second fuzz passes over the mahjongd submission endpoint, the points-to bitset and the IR parser
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzSubmit -fuzztime=10s
	$(GO) test ./internal/bitset/ -run '^$$' -fuzz FuzzSetOps -fuzztime=10s
	$(GO) test ./internal/parser/ -run '^$$' -fuzz FuzzParse -fuzztime=10s

trace-smoke: ## deterministic span traces: golden exports + span accounting over examples/
	$(GO) test ./internal/integration -run 'TestTraceExportGolden|TestSpanAccounting' -count=1

# The corpus differential drives every committed adversarial program
# (testdata/corpus/) through both A/B axes — mahjong-vs-alloc-site and
# warm-vs-cold incremental — under the race detector. On a divergence the harness shrinks a minimal
# reproducer into $(MAHJONG_SCENARIO_ARTIFACTS) (CI uploads that
# directory). docs/SCENARIO.md has the full story.
scenariocheck: ## corpus differential + searcher/shrinker acceptance under -race
	$(GO) test -race -count=1 ./internal/scenario/ ./cmd/synthgen/ -v

corpus: ## regenerate the committed adversarial corpus (must be a no-op unless the searcher changed)
	$(GO) run ./cmd/synthgen -search -seed=1 -out=testdata/corpus

cover: ## coverage over ./internal/... with the recorded floor (docs/OBSERVABILITY.md)
	$(GO) test -coverprofile=cover.out ./internal/...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{gsub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' \
		|| { echo "coverage dropped below the recorded baseline"; exit 1; }

clean:
	$(GO) clean ./...
