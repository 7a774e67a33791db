#!/bin/sh
# check.sh — the pre-merge gate: vet everything, then run the
# concurrency-heavy packages (the cache server and the Section 5
# harness, plus the stack constructor they share, the hashmap whose
# seqlock read path races readers against writers by design, and the
# device and heap under them: Restart trusts dirty bits that stores,
# flushes and the evictor all write at once) under the race detector.
# The full suite already runs race-clean; this focuses the expensive
# -race pass on the packages that exercise real parallelism.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l cmd internal)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# Every layer pays the simulated device on every word: the tallied load,
# LineOf and markDirty must stay inlineable (the load sits exactly at the
# compiler's budget), and the tallied load must have no LOCK-prefixed
# instruction (an access is counted in a word the goroutine owns).
echo "== nvm load path (inlineable, no locked instruction)"
inl=$(go build -gcflags=-m ./internal/nvm 2>&1 || true)
for fn in '(*Tally).Load' '(*Device).LineOf' '(*Device).markDirty'; do
	if ! printf '%s\n' "$inl" | grep -qF "can inline $fn"; then
		echo "internal/nvm: $fn is no longer inlineable" >&2
		exit 1
	fi
done
nvma=$(mktemp)
go build -o "$nvma" ./internal/nvm
locked=$(go tool objdump -s '\(\*Tally\)\.Load$' "$nvma" | grep -w LOCK || true)
rm -f "$nvma"
if [ -n "$locked" ]; then
	echo "internal/nvm: the tallied load has a locked instruction:" >&2
	echo "$locked" >&2
	exit 1
fi

echo "== go test -race (server + proto + repl + cluster + harness + stack + hashmap + nvm + pheap)"
go test -race ./internal/cacheserver ./internal/proto ./internal/repl ./internal/cluster ./internal/harness ./internal/stack ./internal/hashmap ./internal/nvm ./internal/pheap

# The tier / migration / session contracts are races between real
# cores: a lost-increment bug in the old synchronous write path never
# fired on the one-core development host. Run those suites under the
# race detector at several GOMAXPROCS so the schedule space is not
# whatever this host happens to have. The commit-plan tests (a burst
# must be indistinguishable from its commands served one at a time) and
# the crash-vs-batch races ride along: they are the write path's
# ordering and atomicity contracts.
echo "== cacheserver tier/migrate/session/plan tests (-race -cpu 1,2,4)"
go test -race -cpu 1,2,4 -run 'Tier|Relaxed|Durable|Fire|Wait|Epoch|DemandedClose|Migrate|Session|Plan|CrashNeverTears|CrashMidBatch' ./internal/cacheserver

# The demand-driven epoch close is a handful of schedule races (a kick
# against a close in flight, sixteen waiters against one close, a crash
# against a drain fanned out over the shards, the ticker against no
# waiter at all): one pass proves little, so these four run twenty
# times at each GOMAXPROCS.
echo "== demanded epoch close tests (-race -cpu 1,2,4 -count=20)"
go test -race -cpu 1,2,4 -count=20 -run 'TestWaitDemandsEpochClose|TestWaitCoalescesCloses|TestDemandedCloseSkippedByCrash|TestEpochClockStillBoundsLoss' ./internal/cacheserver

echo "== go test ./... (everything else, no race)"
go test ./...

# Line count is a tracked metric (ROADMAP aim 2): the served system's
# non-test source, the replication tier under it and the telemetry
# rows every stats surface renders, printed so a PR that grows any of
# them does so in plain sight.
for pkg in cacheserver repl telemetry; do
	echo "== internal/$pkg non-test lines"
	ls internal/$pkg/*.go | grep -v '_test\.go$' | xargs cat | wc -l
done

# So is per-command knowledge outside the command table
# (internal/proto/spec.go): every `case …Cmd…` arm in the four packages
# that read it. What remains should be executor arms and the adapters'
# hand-written argument tails.
echo "== case-Cmd arms (internal/{proto,cacheserver,cluster,telemetry}, non-test)"
ls internal/proto/*.go internal/cacheserver/*.go internal/cluster/*.go internal/telemetry/*.go |
	grep -v '_test\.go$' | xargs cat | grep -c 'case .*Cmd'

# So is per-metric knowledge outside the telemetry rows
# (internal/telemetry): every hand-written stats line literal left in
# the server and the proxy. The renderers live beside the rows.
echo "== stats renderer literals (\"STAT / \"tsp_ / \"# TYPE in internal/{cacheserver,cluster}, non-test)"
ls internal/cacheserver/*.go internal/cluster/*.go | grep -v '_test\.go$' |
	xargs grep -o '"STAT \|"tsp_\|"# TYPE ' | wc -l

# Recovery cost is tracked the same way: one served shard's crash →
# serving again (Restart, heap open, Atlas recovery with its GC, runtime
# rebuild), in time and in allocations. Printed, not gated — a single
# run on a shared host is too noisy to fail a merge on.
echo "== one shard's CrashReattach (ns/op, allocs/op)"
go test -run 'ZZZ' -bench 'CrashReattach' -benchtime 50x ./internal/stack |
	awk '/^BenchmarkCrashReattach/ { print $3, $4 ", " $7, $8 }'

# The replication, wire-codec, and routing packages are the repo's
# protocol surfaces and the ones other repos would import first: every
# exported identifier must carry a doc comment. go vet checks comment
# FORM; this catches absence, which vet does not. Test files are exempt
# — the gate is about the importable API surface.
echo "== exported doc comments (internal/repl + internal/proto + internal/cluster)"
undocumented=$(ls internal/repl/*.go internal/proto/*.go internal/cluster/*.go | grep -v '_test\.go$' | xargs awk '
	FNR == 1 { prev = "" }
	/^func [A-Z]/ || /^func \([^)]*\) [A-Z]/ || /^type [A-Z]/ || /^const [A-Z]/ || /^var [A-Z]/ {
		if (prev !~ /^\/\//) print FILENAME ":" FNR ": " $0
	}
	{ prev = $0 }
')
if [ -n "$undocumented" ]; then
	echo "exported identifiers missing doc comments:" >&2
	echo "$undocumented" >&2
	exit 1
fi

# The telemetry package is the one layer every other layer calls into on
# its hot path; keep its own coverage visible (and atomic-mode clean,
# since its whole point is concurrent counting).
echo "== telemetry coverage (covermode=atomic)"
go test -covermode=atomic -cover ./internal/telemetry

# The wire codec parses attacker-controlled bytes; keep its branch
# coverage visible the same way.
echo "== proto coverage"
go test -cover ./internal/proto

# The routing tier decides which node's durability contract a key
# falls under; keep its coverage visible next to the server's. Floor
# below the current figure, high enough that dropping the proxy or
# migration suites would trip it.
echo "== cluster coverage (floor 75%)"
ccover=$(go test -cover ./internal/cluster | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*')
echo "coverage: ${ccover}%"
if awk "BEGIN{exit !($ccover < 75)}"; then
	echo "cluster coverage ${ccover}% below 75% floor" >&2
	exit 1
fi

# The durability-tier surface (epoch clock, overlay, wait barrier) is
# the newest crash-contract machinery: keep the cacheserver package's
# coverage visible so the epoch paths don't silently rot untested.
# Floor chosen below the current figure but high enough that dropping
# the epoch suite would trip it.
echo "== cacheserver coverage (floor 80%)"
cover=$(go test -cover ./internal/cacheserver | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*')
echo "coverage: ${cover}%"
if awk "BEGIN{exit !($cover < 80)}"; then
	echo "cacheserver coverage ${cover}% below 80% floor" >&2
	exit 1
fi

# The durability-tier crash campaign, three seeds under the race
# detector: durable and wait-covered writes must always survive a
# crash, relaxed losses must stay above the receipt's epoch frontier.
# Every cycle's crash is issued with a `wait` parked on a second
# connection, so it races a demanded, parallel drain.
echo "== durability-tier crash campaign (3x, -race)"
for s in 1 2 3; do
	go run -race ./cmd/faultinject -durability-only -durability-cycles 5 -seed "$s"
done

# The exactly-once retry campaign, three seeds under the race detector:
# a replicated pair under a sessioned retry storm (every mutation
# resent as a lost-ack duplicate), a power failure mid-storm and a
# follower promotion per cycle; no duplicate may ever apply twice.
echo "== exactly-once retry campaign (3x, -race)"
for s in 1 2 3; do
	go run -race ./cmd/faultinject -exactly-once -exactly-once-cycles 2 -seed "$s"
done

# The cluster campaign, three seeds under the race detector: three
# nodes behind the proxy under the duplicate-send storm, one node
# crashed mid-storm, then all of its slots migrated away while traffic
# continues; zero acked-write loss, exactly-once replay on the new
# owners, MOVED correctness on the old one, Eq 1 & 2 on every node.
echo "== cluster crash + rebalance campaign (3x, -race)"
for s in 1 2 3; do
	go run -race ./cmd/faultinject -cluster -cluster-cycles 2 -seed "$s"
done

# Both parsers read attacker-controlled bytes, and the seeded fuzz
# targets otherwise only ever run their seed corpus: give each a short
# real campaign (liveness: no panic, no hang, no stranded queue entry).
# So does the replication stream's reader: the bytes after `acceptslot`
# come from any client on the client port (no panic, no allocation
# beyond one bounded frame).
echo "== fuzz the codec loops and the replication reader (10s each)"
go test -run '^$' -fuzz '^FuzzNativeLoop$' -fuzztime=10s ./internal/cacheserver
go test -run '^$' -fuzz '^FuzzRESPLoop$' -fuzztime=10s ./internal/cacheserver
go test -run '^$' -fuzz '^FuzzReadMsg$' -fuzztime=10s ./internal/repl

# The doc-drift gate: docs/PROTOCOL.md (the canonical wire reference)
# must match the live flag sets. (Its command tables are checked against
# the command table by TestSpecSpellingsDocumented in go test.)
echo "== doc drift (docs/PROTOCOL.md vs tspcached/tspproxy -help)"
sh scripts/check_docs.sh

echo "OK"
