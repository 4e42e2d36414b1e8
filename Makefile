# Convenience targets mirroring the commands CI (and the tier-1 verify in
# ROADMAP.md) runs. Everything is stdlib-only Go; no other tooling needed.

.PHONY: build test ci fmt-check serve-smoke bench bench-smoke bench-module fuzz-smoke qor-smoke profile

# Tier-1 verify (ROADMAP.md).
test:
	go build ./... && go test ./...

# CI-style check: formatting gate, vet, the full test suite under the race
# detector — the parallel hot paths (internal/par users) and the dsplacerd
# service must stay race-free — plus a single-iteration pass over every
# benchmark so bench-only code (bench harnesses, instance generators)
# cannot bit-rot unnoticed, a short run of every native fuzz target over
# its seed corpus, a golden-QoR smoke on the smallest registered device,
# an end-to-end smoke of the placement service, and the benchmark module
# gate. The race suite runs in two steps: every package but the root, then
# the root package alone. The root package is the slowest under -race, and
# sharing the CPUs with the other packages pushes it towards go test's
# default timeout.
ci:
	$(MAKE) fmt-check && go vet ./... && go test -race $$(go list ./... | grep -vx dsplacer) && go test -race . && $(MAKE) bench-smoke && $(MAKE) fuzz-smoke && $(MAKE) qor-smoke && $(MAKE) serve-smoke && $(MAKE) bench-module

# Fail if any file is not gofmt-clean (gofmt -l prints offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# End-to-end service smoke, two stages: (1) one dsplacerd serves on a
# random loopback port, places the quickstart netlist with final DRC gating
# through the real HTTP API, and checks /metrics reports the completed job;
# (2) two dsplacerd processes share a result cache over the cache/remote
# TCP protocol, and the second must serve the first's placement without
# recomputing it (cross-process cache hit).
serve-smoke:
	go run ./cmd/dsplacerd -smoke
	go run ./cmd/dsplacerd -smoke-cluster

# Seconds of coverage-guided fuzzing per target in fuzz-smoke. Raise for a
# real fuzzing session: make fuzz-smoke FUZZTIME=5m
FUZZTIME ?= 10s

# Run every native fuzz target briefly (go test -fuzz accepts one target
# per invocation, hence one line each). The f.Add seeds plus the committed
# corpora under testdata/fuzz always run even with FUZZTIME=0s.
# -fuzzminimizetime 100x bounds how long the fuzzer minimizes each input
# that widens coverage. The default bound is 60s, so one such input can
# stall a 10s run at 0 execs/sec for the rest of its time; with at most 100
# runs per input the targets keep executing throughout.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzNetlistJSON$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/netlist/
	go test -run '^$$' -fuzz '^FuzzVerilogWrite$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/verilog/
	go test -run '^$$' -fuzz '^FuzzXDCWrite$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/xdc/
	go test -run '^$$' -fuzz '^FuzzSiteName$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/xdc/
	go test -run '^$$' -fuzz '^FuzzGenerate$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/gen/
	go test -run '^$$' -fuzz '^FuzzNewDevice$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/fpga/
	go test -run '^$$' -fuzz '^FuzzRemoteFrame$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/cache/remote/
	go test -run '^$$' -fuzz '^FuzzPlaceRequest$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/server/

# Golden-QoR smoke: run the frozen-seed regression harness on the smallest
# registered device (every family, plus the drift-injection self-check).
# The full matrix over all devices runs as part of `go test ./...`; this
# slice is the fast re-check after a QoR-affecting change. Regenerate the
# envelopes after an intentional change: go test -run TestGoldenQoR -update .
qor-smoke:
	go test -run 'TestGoldenQoR/pynq-z2|TestGoldenQoRDetectsDrift' -v .

build:
	go build ./...

# Compile-and-smoke every benchmark in the repo: one iteration each, with
# allocation counts. Fast; used as a CI gate.
bench-smoke:
	go test -run '^$$' -bench . -benchmem -benchtime=1x ./...

# Benchmark module gate. benchmark/ is a Go module of its own, so the root
# module's build and tests never compile it, yet its traced runner calls
# internal packages (features, placer, detailed, sta, assign, server)
# directly. Vet and test it, then run one op of every workload through both
# of its programs (benchmark/run.sh --smoke; build output in .bench_build).
bench-module:
	cd benchmark && go vet ./... && go test ./...
	bash benchmark/run.sh --smoke

# Hot-path micro-benchmarks with allocation counts (real measurements;
# compare against BENCH_*.json).
bench:
	go test -run '^$$' -bench 'DSPGraphBuild|AssignIteration|MinCostFlow|GlobalPlace|Features|Identify' -benchmem .  && \
	go test -run '^$$' -bench . -benchmem ./internal/mcmf/ && \
	go test -run '^$$' -bench 'ForEach' -benchmem ./internal/par/ && \
	go test -run '^$$' -bench 'Refine' -benchmem ./internal/detailed/ && \
	go test -run '^$$' -bench 'SubmitThroughput' -benchmem ./internal/jobs/

# CPU-profile one Table II regeneration at mini scale; open with
# `go tool pprof cpu.pb.gz`.
profile:
	go run ./cmd/experiments -mini -table2 -stages -cpuprofile cpu.pb.gz
