# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race chaos lint vet perf-counts bench bench-json bench-serve-json bench-dynamic-json bench-async-json bench-stepping-json experiments fuzz clean

all: build test lint

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Fault-injection suite under the race detector with a tight timeout:
# every injected failure (rank death, stall, truncated/corrupt frame)
# must surface as an error on every rank — a hang here is a bug, and the
# timeout is the hang detector. See DESIGN.md "Failure semantics".
chaos:
	go test -race -count=1 -timeout 180s \
		-run 'Chaos|Fault|Abort|PeerKill|Timeout|Close|Machine' \
		./internal/comm/... ./internal/sssp/

vet:
	go vet ./...

# Domain-specific invariants (determinism, atomics, transport errors,
# WaitGroup discipline, collective ordering, pooled-buffer lifetimes,
# wire-data taint); see DESIGN.md "Static analysis & invariants". One
# process, packages analyzed in parallel; the committed baseline is the
# one-way ratchet for pre-existing findings, and stale suppressions fail.
lint: vet
	go run ./cmd/parssspvet -baseline lint.baseline.json -audit-allows ./...

# The benchmark's exact per-layer counts (relaxations, phases, epochs,
# collective calls, records, repair work) on all four workloads, once
# through the tracing transport and once bare. The counts depend on the
# seed and the code only; the harness exits non-zero when the traced and
# bare replays disagree, a pass differs from the one before, or an answer
# is wrong — so a stray collective or a path the wrapper changes fails
# here, on any hardware. See perf/README.md "Per-layer metrics".
perf-counts:
	bash perf/run.sh --workload grid-lib --seed 1 --seconds 4 --trace 1
	bash perf/run.sh --workload small-burst --seed 1 --seconds 4 --trace 1
	bash perf/run.sh --workload rmat-serve --seed 1 --seconds 4 --trace 1
	bash perf/run.sh --workload rmat-mixed --seed 1 --seconds 4 --trace 1

bench:
	go test -bench=. -benchmem .

# Archive the communication-layer benchmarks (GTEPS, wire bytes per
# record/relaxation, allocs per query) as BENCH_comm.json for diffing
# across commits. See EXPERIMENTS.md "Communication layer".
bench-json:
	go test -run '^$$' -bench BenchmarkCommWire -benchmem -benchtime 20x . \
		| go run ./cmd/benchjson -out BENCH_comm.json

# Archive the serving benchmarks (queries/sec of a warm query pool at
# concurrency 1/2/4) as BENCH_serve.json. See EXPERIMENTS.md "Query
# throughput".
bench-serve-json:
	go test -run '^$$' -bench BenchmarkServeThroughput -benchtime 10x . \
		| go run ./cmd/benchjson -out BENCH_serve.json

# Archive the dynamic-update benchmarks as BENCH_dynamic.json:
# end-to-end incremental repair vs full recompute after an edge-update
# batch (BenchmarkIncrementalRepair), plus the isolated version-advance
# cost — patched CSR/plane apply vs legacy full rebuild at batch sizes
# 4/32/256 (BenchmarkPlaneApply). Scale 13 / 4 ranks throughout. See
# EXPERIMENTS.md "Dynamic updates".
bench-dynamic-json:
	{ go test -run '^$$' -bench BenchmarkIncrementalRepair -benchtime 16x . ; \
	  go test -run '^$$' -bench BenchmarkPlaneApply -benchtime 64x ./internal/sssp ; } \
		| go run ./cmd/benchjson -out BENCH_dynamic.json

# Archive the execution-mode benchmarks (asynchronous barrier-free
# relaxation vs BSP at 0 and 100µs emulated latency, scale 13 / 4
# ranks) as BENCH_async.json. See EXPERIMENTS.md "Asynchronous
# execution".
bench-async-json:
	go test -run '^$$' -bench BenchmarkAsyncVsBSP -benchtime 10x . \
		| go run ./cmd/benchjson -out BENCH_async.json

# Archive the stepping-policy comparison (Δ-, Radius- and ρ-stepping on
# scale-13 R-MAT and a long-diameter road-like grid, plus the TunePolicy
# winner per family as picked-* metrics) as BENCH_stepping.json. See
# EXPERIMENTS.md "Stepping policies".
bench-stepping-json:
	go test -run '^$$' -bench BenchmarkSteppingPolicies -benchtime 10x . \
		| go run ./cmd/benchjson -out BENCH_stepping.json

# Regenerate every table/figure of the paper (see EXPERIMENTS.md).
experiments:
	go run ./cmd/bench -experiment all -scale 13 -ranks 1,2,4,8 -threads 2 -roots 3

fuzz:
	go test -fuzz FuzzReadEdgeList -fuzztime 30s ./internal/graph/
	go test -fuzz FuzzBuilderInvariants -fuzztime 30s ./internal/graph/

clean:
	go clean ./...
