#!/bin/sh
# check_docs.sh — the doc-drift gate. docs/PROTOCOL.md is the canonical
# wire and operations reference; this script fails the build when it
# drifts from the code it documents:
#
#   1. The per-binary flag tables in docs/PROTOCOL.md (§8.1 tspcached,
#      §8.2 tspproxy) must each list exactly the flags the live
#      `-help` prints (names compared both ways).
#   2. README.md must point at docs/PROTOCOL.md, and any flag rows it
#      still carries must name live flags (of either binary).
#
# The command sets are gated by a test instead: every spelling in the
# command table (internal/proto/spec.go) must appear as a command entry
# in docs/PROTOCOL.md — TestSpecSpellingsDocumented, part of go test.
set -eu

cd "$(dirname "$0")/.."

doc=docs/PROTOCOL.md
fail=0

# --- 1. flag tables vs live -help ------------------------------------
# Each binary's table lives under its own "### 8.x `<binary>`" heading;
# scrape the flag rows between that heading and the next one.
doc_flags() {
	awk -v bin="$1" '
		/^#/ { in_sec = ($0 ~ "`" bin "`") }
		in_sec && /^\| `-/ { sub(/^\| `/, ""); sub(/`.*/, ""); print }
	' "$doc" | sort -u
}

check_flags() {
	bin=$1
	usage=$(go run ./cmd/"$bin" -h 2>&1 || true)
	live_bin=$(printf '%s\n' "$usage" | awk '/^  -/{print $1}' | sort -u)
	if [ -z "$live_bin" ]; then
		echo "check_docs: could not read flags from '$bin -h'" >&2
		exit 1
	fi
	documented=$(doc_flags "$bin")
	if [ "$live_bin" != "$documented" ]; then
		echo "check_docs: $doc flag table drifted from '$bin -h'" >&2
		echo "--- live flags" >&2
		printf '%s\n' "$live_bin" >&2
		echo "--- documented flags" >&2
		printf '%s\n' "$documented" >&2
		fail=1
	fi
}

check_flags tspcached
live=$live_bin
check_flags tspproxy
live=$(printf '%s\n%s\n' "$live" "$live_bin" | sort -u)

# --- 2. README points at the reference and carries no stale flags ----
if ! grep -q 'docs/PROTOCOL\.md' README.md; then
	echo "check_docs: README.md does not reference docs/PROTOCOL.md" >&2
	fail=1
fi
readme_flags=$(grep '^| `-' README.md | sed 's/^| `\(-[a-z-]*\)`.*/\1/' | sort -u || true)
for f in $readme_flags; do
	if ! printf '%s\n' "$live" | grep -qx -- "$f"; then
		echo "check_docs: README.md documents flag $f that tspcached does not have" >&2
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "docs in sync with the code (flag tables)"
