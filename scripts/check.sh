#!/bin/sh
# check.sh — the pre-merge gate: vet everything, then run the
# concurrency-heavy packages (the cache server and the Section 5
# harness, plus the stack constructor they share, the hashmap whose
# seqlock read path races readers against writers by design, and the
# device and heap under them: Restart trusts dirty bits that stores and
# racing flushers all write at once, and an armed crash records every
# store under them) under the race detector.
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
# compiler's budget), and so must the map's bucket hash and the untallied
# Peek a section's chain walk prefetches through. The same rule
# covers every per-record and per-op path of the commit section: what it
# counts is a plain word its owner holds (the goroutine's tally, the
# Atlas thread, the drain-lock holder) and is published once per
# operation, so none of the paths below may carry a LOCK-prefixed
# instruction; the section's own are its seqlock bracket and publishes.
# Nor may the chain walk that runs before a section: it is a hint.
echo "== per-op paths (inlineable, no locked instruction)"
inl=$(go build -gcflags=-m ./internal/nvm ./internal/hashmap 2>&1 || true)
for fn in '(*Tally).Load' '(*Device).LineOf' '(*Device).markDirty' '(*Map).bucketOf' '(*Device).Peek'; do
	if ! printf '%s\n' "$inl" | grep -qF "can inline $fn"; then
		echo "$fn is no longer inlineable" >&2
		exit 1
	fi
done
obj=$(mktemp)
while read -r pkg n sym; do
	go build -o "$obj" ./internal/"$pkg"
	dump=$(go tool objdump -s "$sym\$" "$obj")
	if [ "$(printf '%s\n' "$dump" | grep -c '^TEXT')" -ne "$n" ]; then
		echo "internal/$pkg: want $n function(s) matching $sym" >&2
		exit 1
	fi
	if printf '%s\n' "$dump" | grep -w LOCK >&2; then
		echo "internal/$pkg: a locked instruction in $sym (above)" >&2
		exit 1
	fi
done <<'END'
nvm 1 \(\*Tally\)\.Load
atlas 1 \(\*Thread\)\.appendEntry
cacheserver 1 \(\*shard\)\.execOp
hashmap 4 \(\*Map\)\.(Put|Inc|Delete|Get)Locked
hashmap 1 \(\*Map\)\.WalkChains
END
rm -f "$obj"

echo "== go test -race (server + proto + repl + cluster + harness + stack + hashmap + nvm + pheap)"
go test -race ./internal/cacheserver ./internal/proto ./internal/repl ./internal/cluster ./internal/harness ./internal/stack ./internal/hashmap ./internal/nvm ./internal/pheap

# The tier / migration / session contracts are races between real
# cores: a lost-increment bug in the old synchronous write path never
# fired on the one-core development host. Run those suites under the
# race detector at several GOMAXPROCS so the schedule space is not
# whatever this host happens to have. The commit-plan tests (a burst
# must be indistinguishable from its commands served one at a time) and
# the concurrent crash campaign ride along: they are the write path's
# ordering and atomicity contracts (the crash-point sweep is one
# goroutine's deterministic replay, so the step above runs it once).
# So do the proxy's: each frontend
# connection reads its own links' replies, and Proxy.Close must still
# cut a frontend out of a wait on a silent node.
echo "== cacheserver tier/migrate/session/plan + proxy tests (-race -cpu 1,2,4)"
go test -race -cpu 1,2,4 -run 'Tier|Relaxed|Durable|Fire|Wait|Epoch|DemandedClose|Migrate|Session|Plan|CrashMidBatch' ./internal/cacheserver
go test -race -cpu 1,2,4 -run 'Proxy' ./internal/cluster

# The demand-driven epoch close is a handful of schedule races (a kick
# against a close in flight, sixteen waiters against one close, a crash
# against a close blocked on a shard's drain lock, the ticker against no
# waiter at all): one pass proves little, so these four run twenty
# times at each GOMAXPROCS.
echo "== demanded epoch close tests (-race -cpu 1,2,4 -count=20)"
go test -race -cpu 1,2,4 -count=20 -run 'TestWaitDemandsEpochClose|TestWaitCoalescesCloses|TestDemandedCloseSkippedByCrash|TestEpochClockStillBoundsLoss' ./internal/cacheserver

echo "== go test ./... (everything else, no race)"
go test ./...

# The benchmark is its own module (bench/go.mod), so the root's vet and
# test skip it; it calls the server, proxy, codec and stack APIs, and a
# change that breaks it must fail here, not when the benchmark is built.
echo "== bench module (vet, test)"
(cd bench && GOPROXY=off GOTOOLCHAIN=local go vet . && GOPROXY=off GOTOOLCHAIN=local go test .)

# Table 1's one runner, at one run per cell and at two: each report
# must hold the four variants' cells and one derived-ratio entry.
echo "== tspbench (-runs 1 and 2: 4 cells, 1 derived entry)"
tmp=$(mktemp)
for r in 1 2; do
	go run ./cmd/tspbench -duration 20ms -profiles desktop -runs "$r" -json -out "$tmp" >/dev/null
	cells=$(grep -c '"variant"' "$tmp")
	derived=$(grep -c '"log_only_overhead_pct"' "$tmp")
	if [ "$cells" -ne 4 ] || [ "$derived" -ne 1 ]; then
		echo "tspbench -runs $r: $cells cells and $derived derived entries, want 4 and 1" >&2
		exit 1
	fi
done
rm -f "$tmp"

# Line count is a tracked metric (ROADMAP aim 2): the served system's
# non-test source, the routing tier in front of it, the replication
# tier under it, the telemetry rows every stats surface renders and the
# simulated device under everything.
# Each count has a ceiling written here: a change that must grow one
# raises its ceiling in its own diff, where reviewers see it.
ceiling() {
	echo "$2 (ceiling $3)"
	if [ "$2" -gt "$3" ]; then
		echo "$1: $2 is above its ceiling $3" >&2
		exit 1
	fi
}
for pc in cacheserver:4082 cluster:1183 repl:1138 telemetry:1449 nvm:1152; do
	pkg=${pc%:*}
	echo "== internal/$pkg non-test lines"
	ceiling "internal/$pkg non-test lines" \
		$(($(ls internal/"$pkg"/*.go | grep -v '_test\.go$' | xargs cat | wc -l))) "${pc#*:}"
done

# And the whole: every tracked non-test Go line outside the benchmark
# module, so code a deletion removed cannot grow back unseen.
echo "== non-test Go lines outside bench/"
ceiling "non-test Go lines outside bench/" $(($(git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$' |
	xargs cat | wc -l))) 19567

# So is per-command knowledge outside the command table
# (internal/proto/spec.go): every `case …Cmd…` arm in the four packages
# that read it. What remains should be executor arms and the adapters'
# hand-written argument tails.
echo "== case-Cmd arms (internal/{proto,cacheserver,cluster,telemetry}, non-test)"
ceiling "case-Cmd arms" $(($(ls internal/proto/*.go internal/cacheserver/*.go internal/cluster/*.go internal/telemetry/*.go |
	grep -v '_test\.go$' | xargs cat | grep 'case .*Cmd' | wc -l))) 28

# So is per-metric knowledge outside the telemetry rows
# (internal/telemetry): every hand-written stats line literal left in
# the server and the proxy. The renderers live beside the rows.
echo "== stats renderer literals (\"STAT / \"tsp_ / \"# TYPE in internal/{cacheserver,cluster}, non-test)"
ceiling "stats renderer literals" $(($(ls internal/cacheserver/*.go internal/cluster/*.go | grep -v '_test\.go$' |
	xargs grep -o '"STAT \|"tsp_\|"# TYPE ' | wc -l))) 0

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

# The crash campaigns (cmd/faultinject), under the race detector at
# several GOMAXPROCS: TestCampaigns runs the served campaigns at seeds
# 1-3 (durability 5 cycles: durable and wait-covered writes survive a
# crash racing a demanded drain, relaxed losses stay above the receipt's
# frontier; exactly-once 2: a replicated pair under a duplicate-send
# storm, a crash mid-storm and a promotion, no seq applied twice;
# cluster 2: three nodes behind the proxy, one crashed and rebalanced
# away mid-storm, no acked write lost, MOVED on the old owner, Eq 1 & 2
# on every node), plus a few multi-engine and Section 5.2 crashes and
# one site-disaster cycle (a real tspcached primary SIGKILLed mid-storm,
# its follower promoted: wait-repl-covered acks survive, Eq 1 & 2 hold);
# the keyHist tests feed the one checker every violation it must catch.
echo "== crash campaigns (-race -cpu 1,2,4)"
go test -race -cpu 1,2,4 ./cmd/faultinject

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
# must match the live flag sets, no doc may name a dead make target,
# tspbench flag or source path, each doc stays under its byte ceiling,
# each CHANGES.md entry under 2 KB, and every package carries a doc
# comment. (The command tables are checked against the command table
# by TestSpecSpellingsDocumented in go test.)
echo "== doc drift (docs/PROTOCOL.md vs -help, make targets, tspbench flags, paths, doc ceilings, package docs)"
sh scripts/check_docs.sh

echo "OK"
