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
#   3. No doc names a dead target, flag or path: every `make <target>`
#      in the operator docs must be a Makefile target, every
#      `tspbench -<flag>` a flag `tspbench -h` prints, and every
#      `cmd/…`, `examples/…` or `internal/…` path one that exists.
#      bench/README.md is left out: it changes only with the benchmark.
#   4. Every CHANGES.md entry (a line starting "- PR <n>:" or
#      "- PR <n> (") is at most 2,048 bytes.
#   5. Each operator doc is at or under its byte ceiling. A change that
#      must grow a doc raises its ceiling in its own diff, where
#      reviewers see it, as check.sh does for line counts.
#   6. Every package with non-test Go files has a package doc comment:
#      `go list -f '{{.ImportPath}}: {{.Doc}}' ./...` is the package
#      guide, so no doc repeats it.
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

# --- 3. no doc names a dead make target or tspbench flag -------------
docs="README.md DESIGN.md EXPERIMENTS.md docs/*.md .claude/skills/verify/SKILL.md"
targets=$(awk -F: '/^[A-Za-z][A-Za-z0-9_-]*:/ { print $1 }' Makefile | sort -u)
for f in $docs; do
	# A target is written `make <target>`, possibly wrapped onto the
	# next line; join the lines so the wrap does not hide it.
	named=$(tr '\n' ' ' <"$f" | grep -oE '`make[[:space:]]+[A-Za-z][A-Za-z0-9_-]*' |
		awk '{ print $2 }' | sort -u || true)
	for t in $named; do
		if ! printf '%s\n' "$targets" | grep -qx -- "$t"; then
			echo "check_docs: $f names make target '$t', which the Makefile does not have" >&2
			fail=1
		fi
	done
done
for f in $docs; do
	# A path starts a word, or follows "./"; a trailing `.Name` is a Go
	# identifier in that package, and a glob must match something.
	named=$(grep -oE '(^|[^A-Za-z0-9_./-])(\./)?(cmd|examples|internal)/[A-Za-z0-9_.*/-]*' "$f" |
		sed -E 's#^[^A-Za-z0-9_./-]##; s#^\./##; s#\.[A-Z].*##; s#[./]+$##' | sort -u || true)
	for p in $named; do
		set -- $p
		if [ ! -e "$1" ]; then
			echo "check_docs: $f names $p, which does not exist" >&2
			fail=1
		fi
	done
done
bench_flags=$(go run ./cmd/tspbench -h 2>&1 | awk '/^  -/{print $1}' | sort -u || true)
if [ -z "$bench_flags" ]; then
	echo "check_docs: could not read flags from 'tspbench -h'" >&2
	exit 1
fi
for f in $docs; do
	# Every -flag token after "tspbench" on a line, up to the end of
	# the code span or the shell comment.
	used=$(awk '{
		line = $0
		while ((i = index(line, "tspbench")) > 0) {
			line = substr(line, i + 8)
			rest = line
			sub(/[`#|].*/, "", rest)
			n = split(rest, w, /[[:space:]]+/)
			for (k = 1; k <= n; k++)
				if (match(w[k], /^-[a-z][a-z-]*/)) print substr(w[k], RSTART, RLENGTH)
		}
	}' "$f" | sort -u)
	for u in $used; do
		if ! printf '%s\n' "$bench_flags" | grep -qx -- "$u"; then
			echo "check_docs: $f names tspbench flag $u, which 'tspbench -h' does not list" >&2
			fail=1
		fi
	done
done

# --- 4. every CHANGES.md entry fits in 2 KB ------------------------
long=$(LC_ALL=C awk '/^- PR [0-9]+(:| \()/ {
	if (length($0) > 2048) print "PR " ($3 + 0) ": " length($0) " bytes"
}' CHANGES.md)
if [ -n "$long" ]; then
	echo "check_docs: CHANGES.md entries over 2,048 bytes:" >&2
	printf '%s\n' "$long" >&2
	fail=1
fi

# --- 5. each doc at or under its byte ceiling -------------------------
for dc in README.md:6577 DESIGN.md:36458 EXPERIMENTS.md:52787 docs/PROTOCOL.md:36215; do
	f=${dc%:*}
	n=$(($(wc -c <"$f")))
	if [ "$n" -gt "${dc##*:}" ]; then
		echo "check_docs: $f is $n bytes, above its ceiling ${dc##*:}" >&2
		fail=1
	fi
done

# --- 6. every package has a doc comment -------------------------------
undocumented=$(go list -f '{{if .GoFiles}}{{if not .Doc}}{{.ImportPath}}{{end}}{{end}}' ./...)
if [ -n "$undocumented" ]; then
	echo "check_docs: packages without a doc comment:" >&2
	printf '%s\n' "$undocumented" >&2
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "docs in sync with the code (flag tables, make targets, tspbench flags, paths, CHANGES.md entry sizes, doc ceilings, package docs)"
