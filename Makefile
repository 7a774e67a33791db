GO ?= go

.PHONY: build test check bench-json bench-micro bench-recover bench-setup \
	bench-pairs check-docs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pre-merge gate: vet + build + race-detector pass on the
# concurrency-heavy packages + the full suite. See scripts/check.sh.
check:
	sh scripts/check.sh

# Machine-readable Table 1 run: writes BENCH_tspbench.json next to the
# human-readable output, for tracking perf across commits.
bench-json:
	$(GO) run ./cmd/tspbench -duration 500ms -json -out BENCH_tspbench.json

# The in-process micro-benchmarks, one line per question: sharded
# scaling (multi-shard must beat single-shard at >= 4 goroutines), the
# batch pipeline (single sets and 8-key msets, with p50/p95 and
# ops/batch), replication overhead (a streaming follower vs none, with
# the ack-measured lag), lock-free read scaling and the 90/10 get/set
# mix, and the telemetry overhead guard (counting on vs off at the
# device and map entry points). Fixed iteration counts, so two runs
# measure the same work. The served system end to end is bench/ (see
# bench-pairs).
bench-micro:
	$(GO) test -run 'ZZZ' -bench '^Benchmark(Shards|Mget)' -cpu 4,8 -benchtime 300000x ./internal/cacheserver
	$(GO) test -run 'ZZZ' -bench 'SetsBatched|MsetsBatched' -cpu 8 -benchtime 50000x ./internal/cacheserver
	$(GO) test -run 'ZZZ' -bench 'SetsRepl' -cpu 8 -benchtime 50000x ./internal/cacheserver
	$(GO) test -run 'ZZZ' -bench 'GetsOptimistic|ReadMix' -cpu 8 -benchtime 50000x ./internal/cacheserver
	$(GO) test -run 'ZZZ' -bench 'StoreTelemetry|LoadTelemetry|LoadTallied|LoadOneShot' -benchtime 2000000x ./internal/nvm
	$(GO) test -run 'ZZZ' -bench 'PutTelemetry' -benchtime 300000x ./internal/hashmap

# The doc-drift gate: the flag tables in docs/PROTOCOL.md must list
# exactly the live `-help` flags, no doc may name a make target or
# tspbench flag that is gone, each doc stays under its byte ceiling, and
# every package has a doc comment. (That the command tables in
# docs/PROTOCOL.md cover the command table is a go test:
# TestSpecSpellingsDocumented in internal/proto.)
check-docs:
	sh scripts/check_docs.sh

# The recovery-cost benchmarks, one step per line: Restart by how many
# lines the crash left dirty, the heap's Open and collection, the map's
# and the skip list's Verify, one served shard's whole CrashReattach,
# and atlas.Recover by in-flight log volume. Fixed iteration counts, so
# two runs measure the same work.
bench-recover:
	$(GO) test -run 'ZZZ' -bench 'Restart|FlushAllSparse' -benchtime 100x ./internal/nvm
	$(GO) test -run 'ZZZ' -bench 'GC|OpenRebuild' -benchtime 100x ./internal/pheap
	$(GO) test -run 'ZZZ' -bench 'Verify' -benchtime 100x ./internal/hashmap ./internal/skiplist
	$(GO) test -run 'ZZZ' -bench 'CrashReattach' -benchtime 100x ./internal/stack
	$(GO) test -run 'ZZZ' -bench 'BenchmarkRecovery$$' -benchtime 20x .

# The set-up cost, one layer per line: one served shard's stack.New
# with its thread (device, heap, runtime, map, list, anchors, log ring:
# stores and write-backs per set-up beside its time), the heap's
# allocations on a fresh device, and the map's insert path under each
# mode (undo records per insert). Fixed iteration counts, so two runs
# measure the same work.
bench-setup:
	$(GO) test -run 'ZZZ' -bench 'StackNew' -benchtime 200x -count 5 ./internal/stack
	$(GO) test -run 'ZZZ' -bench 'AllocVaried' -benchtime 200000x ./internal/pheap
	$(GO) test -run 'ZZZ' -bench 'Insert' -benchtime 200000x ./internal/hashmap

# Alternating parent/change pairs of one bench/ workload, with quartiles
# and wins — the form a perf claim against BENCHMARK.json takes:
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=write_pipe [PAIRS=10] [SECONDS=15]
bench-pairs:
	bash scripts/bench_pairs.sh $(or $(PARENT),HEAD) $(or $(WORKLOAD),write_pipe) $(or $(PAIRS),10) $(or $(SECONDS),15)
