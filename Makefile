# Tier-1 verification gate (see ROADMAP.md). `make tier1` is what CI
# and pre-merge checks run: build + vet + full test suite, plus the
# race detector on the packages that execute real goroutines (the
# cluster's SPMD supersteps and samplesort's collective exchanges —
# the right correctness tool for the overlapped-communication path —
# core's crash-recovery restarts, mergepart's collective merge, and
# the query engine's concurrent serving path, plus the root package
# for the Server front end, and the build layers whose tables peer
# ranks read during exchanges: Pipesort outputs, in-place external
# sorts, simulated disks, and spaced samples) — and the benchmark
# module's own answer-checked tests (cubebench/ is a separate Go
# module, so `go test ./...` at the root does not reach it).

GO ?= go

.PHONY: tier1 build vet test race bench-test bench bench-figs bench-json bench-json-smoke bench-ingest-json bench-ingest-smoke experiments qbench-smoke qbench-replica-smoke bench-replica-json qbench-chaos-smoke bench-resilience-json qbench-advisor-smoke bench-advisor-json bench-storage-json bench-storage-smoke qbench-storage-smoke lint-aggop qbench-sketch-smoke bench-sketch-json

tier1: build vet test race lint-aggop bench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/cluster/... ./internal/samplesort/... ./internal/core/... ./internal/mergepart/... ./internal/ingest/... ./internal/queryengine/... ./internal/replica/... ./internal/faults/... ./internal/gen/... ./internal/advisor/... ./internal/record/... ./internal/colstore/... ./internal/sketch/... ./internal/pipesort/... ./internal/extsort/... ./internal/simdisk/... ./internal/sample/... .

bench-test:
	cd cubebench && $(GO) vet ./... && $(GO) test ./...

# AggOp / sketch-kind exhaustiveness guard: a new aggregate operator
# must be wired through every serve/merge switch (public enum,
# snapshot load, sketch store dispatch) or it silently degrades. Grep
# the cross-package switches, vet, and run the record-level guard test.
lint-aggop:
	./scripts/lint_aggop.sh

# Real wall-clock microbenchmarks for the sort/merge kernels, run long
# enough to be meaningful. (The old `bench` ran everything with
# -benchtime=1x, which times a single iteration — fine for the figure
# harness below, useless as a benchmark.)
bench:
	$(GO) test -bench=. -benchtime=2s -run=^$$ ./internal/record/ ./internal/extsort/

# Paper-figure benchmark sweep: each "iteration" is one full simulated
# experiment, so a single run (-benchtime=1x) is deliberate here.
bench-figs:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Machine-readable kernel speedup report (ns/op, rows/sec, allocs/op,
# on/off speedups) written to BENCH_PR4.json.
bench-json:
	$(GO) run ./cmd/wallbench -out BENCH_PR4.json

bench-json-smoke:
	$(GO) run ./cmd/wallbench -smoke -out BENCH_PR4.json

# Incremental-ingest economics report (BENCH_PR5.json): one 1% batch
# versus a full rebuild, simulated and wall-clock, plus the two-batch
# equivalence diff against a fresh rebuild. The full run enforces the
# < 0.25 sim-cost-ratio acceptance bar; the smoke run is the CI gate
# (equivalence only — smoke sizes are access-latency bound).
bench-ingest-json:
	$(GO) run ./cmd/wallbench -ingest -out BENCH_PR5.json

bench-ingest-smoke:
	$(GO) run ./cmd/wallbench -ingest -smoke -out BENCH_PR5.json

experiments:
	$(GO) run ./cmd/experiments -fig all

# Tiny serving workload as an end-to-end smoke test of the query
# subsystem (build -> serve -> report).
qbench-smoke:
	$(GO) run ./cmd/qbench -rows 2000 -queries 40 -p 1,2 -workers 4

# Tiny replicated-serving workload: leader ingests while replicas serve
# (build -> replicate -> ingest+serve -> catch up -> report).
qbench-replica-smoke:
	$(GO) run ./cmd/qbench -rows 2000 -queries 40 -replicas 1,2 -ingest-batches 3 -ingest-rows 100 -workers 4

# Replica-scaling report (BENCH_PR6.json): read throughput and latency
# percentiles as replica count grows, with the leader ingesting
# throughout. The acceptance bar is >= 3x single-replica throughput at
# 4 replicas with p99 within 1.5x.
bench-replica-json:
	$(GO) run ./cmd/qbench -rows 40000 -queries 600 -replicas 1,2,4 -workers 8 -out BENCH_PR6.json

# Deterministic chaos smoke: serve a fixed workload through 4 replicas
# while one crash-loops, a second straggles, and the breakers, retries,
# hedges, and leader fallback mask it all. -verify checks every answer
# against the leader and exits nonzero on any wrong or failed query, so
# this is a CI gate on the resilience layer's correctness, not a perf
# number.
qbench-chaos-smoke:
	$(GO) run ./cmd/qbench -chaos -verify -rows 4000 -queries 240 -chaos-replicas 4 -workers 8

# Adaptive-materialization smoke: the three-arm advisor scenario
# (full / static-minimal / advisor) on a small workload with the gate
# on — the advisor arm must strictly improve p50 over static-minimal,
# converge to <= 1.25x the full-cube p50 within the 35% view budget,
# and answer every query identically to the full cube.
qbench-advisor-smoke:
	$(GO) run ./cmd/qbench -advisor -smoke -rows 4000 -queries 200 -p 2 -advise-every 25

# Advisor-convergence report (BENCH_PR8.json): the full-size scenario
# with the per-step trajectory (views, storage, window p50/p99), the
# p50-vs-full and view-fraction acceptance ratios, and the oracle
# check counts.
bench-advisor-json:
	$(GO) run ./cmd/qbench -advisor -smoke -rows 20000 -queries 400 -p 4 -advise-every 40 -out BENCH_PR8.json

# Columnar-storage report (BENCH_PR9.json): bytes/row for row vs
# columnar storage before and after attribute-value reordering, the
# whole-cube modelled footprint, build wall-clock with the store
# off/on, snapshot size and cold-load-to-first-query for v2 vs v3,
# snapshot-ship bytes bootstrapping 4 replicas, and the simulated
# query-latency comparison. Gates: >= 2x bytes/row vs row storage,
# query latency within 1.05x, byte-identical answers. The smoke run
# enforces the same gates at small sizes.
bench-storage-json:
	$(GO) run ./cmd/wallbench -storage -out BENCH_PR9.json

bench-storage-smoke:
	$(GO) run ./cmd/wallbench -storage -smoke -out BENCH_PR9.json

# Columnar-storage answer gate: replay one deterministic mixed
# workload (group-bys, filters, point and range aggregates) against
# the same cube built row-form and columnar, exiting nonzero unless
# every answer is byte-identical.
qbench-storage-smoke:
	$(GO) run ./cmd/qbench -storage -rows 6000 -p 4 -queries 200

# Holistic-measure gates: the three-arm sketch experiment (distinct
# and quantile estimates vs the exact gather oracle across
# cardinalities and percentile ranks, build-cost overhead, and the
# kernels-on/off blob determinism check). The run exits nonzero unless
# every estimate is within the 5% bound and the sealed sketch blobs
# are bit-identical across kernel paths. The smoke run is the CI gate
# at reduced size; the full run writes BENCH_PR10.json.
qbench-sketch-smoke:
	$(GO) run ./cmd/qbench -sketch -rows 8000 -seed 42

bench-sketch-json:
	$(GO) run ./cmd/qbench -sketch -rows 40000 -seed 42 -out BENCH_PR10.json

# Serving-resilience report (BENCH_PR7.json): the verified chaos
# scenario (goodput and wall latency with 1-of-4 replicas
# crash-looping) plus the flash-crowd comparison (coalescing +
# stale-serve ladder vs a control with both disabled under a Zipf
# hot-key stampede). Acceptance: goodput >= 90% with zero wrong
# answers, and the resilient arm serving the full stream the control
# sheds.
bench-resilience-json:
	$(GO) run ./cmd/qbench -chaos -flashcrowd -verify -rows 20000 -queries 800 -chaos-replicas 4 -workers 8 -out BENCH_PR7.json
