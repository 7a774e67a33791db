GO ?= go

.PHONY: build test check bench-shards bench-json bench-telemetry bench-batch \
	bench-repl bench-read bench-pipeline bench-ordered bench-epoch bench-session \
	demo-repl campaign-durability campaign-exactly-once \
	campaign-cluster bench-cluster check-docs bench-recover bench-pairs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pre-merge gate: vet + build + race-detector pass on the
# concurrency-heavy packages + the full suite. See scripts/check.sh.
check:
	sh scripts/check.sh

# The sharding acceptance benchmark: multi-shard must beat single-shard
# at >= 4 goroutines.
bench-shards:
	$(GO) test -run 'ZZZ' -bench 'Shards|Mget' -cpu 4,8 -benchtime 300000x ./internal/cacheserver

# Machine-readable Table 1 run: writes BENCH_tspbench.json next to the
# human-readable output, for tracking perf across commits.
bench-json:
	$(GO) run ./cmd/tspbench -duration 500ms -json -out BENCH_tspbench.json

# The batch-pipeline benchmark, at 8 concurrent clients: single sets
# and the batched mutation workload (8-key msets), with client-observed
# p50/p95 command latency and mean ops/batch as extra metrics.
bench-batch:
	$(GO) test -run 'ZZZ' -bench 'SetsBatched|MsetsBatched' -cpu 8 -benchtime 50000x ./internal/cacheserver

# The replication overhead comparison: the pure-set workload with a
# streaming in-process follower attached vs standalone. The On variant
# also reports the ack-measured lag percentiles.
bench-repl:
	$(GO) test -run 'ZZZ' -bench 'SetsRepl' -cpu 8 -benchtime 50000x ./internal/cacheserver

# The optimistic-read acceptance benchmark, at 8 concurrent clients:
# pure-get scaling at 1/4/8 shards and the 90/10 get/set mix, seqlock
# read path vs the locked one. Optimistic pure-get throughput must beat
# locked by >= 1.5x, and the mix's get p50 must be no worse.
bench-read:
	$(GO) test -run 'ZZZ' -bench 'Gets(Optimistic|Locked)|ReadMix' -cpu 8 -benchtime 50000x ./internal/cacheserver

# The pipelined wire-codec benchmark: an in-process server driven over
# TCP at pipeline depths 1/8/64. Cells merge into BENCH_tspbench.json
# under profile "pipeline" (the Table-1 cells are preserved).
bench-pipeline:
	$(GO) run ./cmd/tspbench -pipeline -duration 500ms -depths 1,8,64 -json -out BENCH_tspbench.json

# The ordered-keyspace benchmark: zadd/zrange/mixed traffic against the
# persistent skip list over the native protocol. Cells merge into
# BENCH_tspbench.json under profile "ordered".
bench-ordered:
	$(GO) run ./cmd/tspbench -ordered -duration 500ms -json -out BENCH_tspbench.json

# The durability-tier benchmark: depth-32 set bursts acked durable vs
# relaxed vs fire, plus a relaxed burst closed by one wait barrier.
# Cells merge into BENCH_tspbench.json under profile "epoch".
bench-epoch:
	$(GO) run ./cmd/tspbench -epoch -duration 500ms -json -out BENCH_tspbench.json

# The durability-tier crash campaign: a full cache server under mixed
# durable/relaxed/wait traffic, crashed every cycle; durable and
# wait-covered writes must always survive, relaxed losses must stay
# above the receipt's epoch frontier. check.sh runs this 3x under -race.
campaign-durability:
	$(GO) run ./cmd/faultinject -durability-only -durability-cycles 10

# The exactly-once retry campaign: a replicated pair under a sessioned
# retry storm (every mutation resent as a lost-ack duplicate), with a
# power failure mid-storm and a follower promotion per cycle; no
# duplicate may ever apply twice. check.sh runs this 3x under -race.
campaign-exactly-once:
	$(GO) run ./cmd/faultinject -exactly-once -exactly-once-cycles 4

# The cluster crash-and-rebalance campaign: three nodes behind the
# routing proxy under a duplicate-send storm, one owning node crashed
# mid-storm, then every one of its slots migrated away while traffic
# continues; zero acked-write loss across the flips, exactly-once
# replay on the new owners, MOVED correctness on the old one.
# check.sh runs this 3x under -race.
campaign-cluster:
	$(GO) run ./cmd/faultinject -cluster -cluster-cycles 3

# The cluster-tier benchmark: the pipelined mixed workload direct to
# one node vs through tspproxy over 1/2/4 nodes splitting the slot
# space. Cells merge into BENCH_tspbench.json under profile "cluster".
# Single-core hosts understate the proxy cells badly — see the cluster
# section of EXPERIMENTS.md before reading the ratios.
bench-cluster:
	$(GO) run ./cmd/tspbench -cluster -duration 500ms -json -out BENCH_tspbench.json

# The exactly-once session benchmark: seq-tagged increments vs the plain
# baseline, durable and relaxed, plus the pure duplicate-replay rate.
# Cells merge into BENCH_tspbench.json under profile "session".
bench-session:
	$(GO) run ./cmd/tspbench -session -duration 500ms -json -out BENCH_tspbench.json

# The doc-drift gate: the flag tables in README.md and docs/PROTOCOL.md
# must list exactly the live `tspcached -help` flags. (That the command
# tables in docs/PROTOCOL.md cover the command table is a go test:
# TestSpecSpellingsDocumented in internal/proto.)
check-docs:
	sh scripts/check_docs.sh

# The replication acceptance campaign: two real tspcached processes,
# load, SIGKILL the primary, promote the follower, verify Equations 1
# and 2 on the promoted copy. See cmd/repldemo.
demo-repl:
	$(GO) run ./cmd/repldemo

# The recovery-cost benchmarks, one step per line: Restart by how many
# lines the crash left dirty, one served shard's whole CrashReattach,
# and atlas.Recover by in-flight log volume. Fixed iteration counts, so
# two runs measure the same work.
bench-recover:
	$(GO) test -run 'ZZZ' -bench 'Restart|FlushAllSparse' -benchtime 100x ./internal/nvm
	$(GO) test -run 'ZZZ' -bench 'CrashReattach' -benchtime 100x ./internal/stack
	$(GO) test -run 'ZZZ' -bench 'BenchmarkRecovery$$' -benchtime 20x .

# The telemetry overhead guard: counting on vs off at the device's
# one-shot entry points and the map layer, and the tallied load the
# layers use beside the one-shot one.
bench-telemetry:
	$(GO) test -run 'ZZZ' -bench 'StoreTelemetry|LoadTelemetry|LoadTallied|LoadOneShot' -benchtime 2000000x ./internal/nvm
	$(GO) test -run 'ZZZ' -bench 'PutTelemetry' -benchtime 300000x ./internal/hashmap

# Alternating parent/change pairs of one bench/ workload, with quartiles
# and wins — the form a perf claim against BENCHMARK.json takes:
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=write_pipe [PAIRS=10] [SECONDS=15]
bench-pairs:
	bash scripts/bench_pairs.sh $(or $(PARENT),HEAD) $(or $(WORKLOAD),write_pipe) $(or $(PAIRS),10) $(or $(SECONDS),15)
