# Convenience targets for the ILAN reproduction.

GO ?= go

.PHONY: all check build vet test bench bench-all race cover figures smoke fuzz clean

all: check

# The default gate: build, vet, tests, and a race-detector pass over the
# parallel experiment executor.
check: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Hot-path benchmarks (event engine, dispatch/steal loop, full campaign)
# with allocation stats; the JSON snapshot records the perf trajectory.
bench:
	$(GO) test -bench='BenchmarkEngineEvents|BenchmarkDispatchSteal|BenchmarkFullCampaignCG|BenchmarkRefreshStorm|BenchmarkMachineExec|BenchmarkResolver' \
		-benchmem -run=NONE . | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_hotpath.json

# Full benchmark sweep (figures, ablations, micro-benches).
bench-all:
	$(GO) test -bench=. -benchmem -run=NONE .

# Each simulated run is single-threaded by design, but the harness fans
# independent runs across goroutines (internal/harness/pool.go), so the
# race detector guards the executor as well as the tests themselves.
race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

# Coverage-guided fuzzing of the simulator under the invariant checker
# and metamorphic oracles (DESIGN.md §11), then a randomized soak run.
# FUZZTIME bounds each native target; corpora seed from testdata/fuzz/.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzScenario -fuzztime=$(FUZZTIME) ./internal/simcheck
	$(GO) test -fuzz=FuzzRenumbering -fuzztime=$(FUZZTIME) ./internal/simcheck
	$(GO) test -fuzz=FuzzSpecValidate -fuzztime=$(FUZZTIME) ./internal/topology
	$(GO) test -fuzz=FuzzFluidReference -fuzztime=$(FUZZTIME) ./internal/machine
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/looplang
	$(GO) run ./cmd/ilanfuzz -runs 500

# Reproduce every figure and table at paper scale (3 min 45 s wall, 7.3 CPU
# minutes, on a 2-vCPU Xeon @ 2.1 GHz with the default -jobs).
figures:
	$(GO) run ./cmd/ilanexp -exp all -reps 30

# Quick end-to-end smoke: reduced scale, every experiment.
smoke:
	$(GO) run ./cmd/ilanexp -exp all -reps 2 -class test -q

clean:
	rm -f cover.out
