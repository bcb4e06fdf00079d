#!/bin/sh
# docs_check.sh — verify that the documentation tree is self-consistent.
#
# Name rows: every name a pattern pulls from non-test Go must appear as
# a word in a named doc. One helper (documented) checks each row, and a
# row whose pattern pulls no name fails too:
#   metrics     names passed to Counter, Gauge or Histogram under
#               internal/ and cmd/ (a string literal, or a constant
#               declared there)                 → docs/OBSERVABILITY.md
#   endpoints   "METHOD /path" mux patterns of internal/server
#                                               → docs/SERVICE.md
#   log events  ev* constants of internal/server/log.go and
#               internal/llm/backends.go        → docs/OBSERVABILITY.md
#   llm flags   -llm-* flags of cmd/wasabi and cmd/wasabid
#                                               → docs/RESILIENCE.md
#   idioms      Idiom* constants of internal/corpusgen/idioms.go
#                                               → docs/CORPUSGEN.md
#   bug classes Bug constants of internal/apps/meta → docs/CORPUS.md
#   facts       sast.FactsSchema                → docs/ARCHITECTURE.md
#
# The twelve gates, each with its verdict:
#   1. Kept: every *.md path a Go source mentions exists; no other gate
#      checks doc paths named in Go.
#   2. Kept: every relative link in README.md and docs/*.md resolves
#      (anchors and absolute URLs are skipped).
#   3. Kept: every internal/* package states its paper section (a "§"
#      reference) in its documentation; a presence check, not a name row.
#   4. Code→catalog merged into the metrics row. Catalog→code kept:
#      every metric a docs/OBSERVABILITY.md catalog row names is
#      registered. Its AddGauge and suffix rules deleted: no series is
#      added at scrape time any more.
#   5. Merged into the endpoints row, which now matches the method too.
#   6. Merged into the log-events row.
#   7. The two hard-coded flags merged into the llm-flags row, which
#      pulls the same two from the commands. Docs→code kept: every
#      -llm-* flag README.md, EXPERIMENTS.md or docs/*.md names is
#      registered by cmd/wasabi or cmd/wasabid.
#   8. Merged into the idioms and bug-classes rows.
#   9. Kept: the per-app composition table in docs/CORPUS.md matches
#      `studyreport -corpus-table` line for line; a table, not names.
#  10. Merged into the facts row; its "cannot extract" error now guards
#      every row.
#  11. Kept: every cmd/<name> that README.md, DESIGN.md, EXPERIMENTS.md,
#      docs/*.md or a Go source outside bench/ names exists.
#  12. Kept: every cmd/*/main.go "Usage:" block lists exactly the flags
#      that file registers.
#
# Exits non-zero listing every violation; run via `make docs-check`.
set -u
cd "$(dirname "$0")/.."

fail=0
err() {
	echo "docs-check: $*" >&2
	fail=1
}

# go_names PATTERN PATH...: the quoted literal that ends each match of
# the extended regex PATTERN in the non-test Go under PATH, one a line.
go_names() {
	pattern=$1
	shift
	grep -rhoE --include='*.go' --exclude='*_test.go' "$pattern" "$@" | grep -oE '"[^"]*"$' | tr -d '"' | sort -u
}

# documented WHAT NAMES DOC FORMAT: every line of NAMES must appear in
# DOC as a word; each missing one is reported with the printf FORMAT.
# Empty NAMES fails as well (WHAT says what was looked for), so a moved
# declaration cannot turn its row into a silent pass.
documented() {
	[ -n "$2" ] || {
		err "cannot extract $1"
		return
	}
	while IFS= read -r name; do
		grep -qwF -- "$name" "$3" || err "$(printf "$4" "$name")"
	done <<EOF
$2
EOF
}

# 1. .md paths referenced from Go sources must exist (relative to repo root).
for src in $(grep -rlE '[A-Za-z0-9_./-]+\.md' --include='*.go' .); do
	for ref in $(grep -hoE '[A-Za-z0-9_./-]+\.md' "$src" | sort -u); do
		[ -f "$ref" ] || err "$src references $ref, which does not exist"
	done
done

# 2. Relative links in README.md and docs/*.md must resolve.
for doc in README.md docs/*.md; do
	[ -f "$doc" ] || continue
	dir=$(dirname "$doc")
	# Extract markdown link targets: ](target)
	for target in $(grep -hoE '\]\([^)]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//' | sort -u); do
		case $target in
		http://* | https://* | mailto:*) continue ;; # external
		'#'*) continue ;;                            # in-page anchor
		esac
		path=${target%%#*} # strip trailing anchor
		[ -n "$path" ] || continue
		[ -e "$dir/$path" ] || err "$doc links to $target, which does not resolve"
	done
done

# 3. Every internal package documents its paper section (§).
for pkgdir in $(find internal -type f -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do
	grep -l '§' "$pkgdir"/*.go >/dev/null 2>&1 ||
		err "package $pkgdir has no paper-section (§) reference in its godoc"
done

# Name rows (4, 5, 6, 7, 8, 10). A metric name argument is a string
# literal or a constant (possibly package-qualified) declared under
# internal/ or cmd/.
metrics=""
for arg in $(grep -rhoE --include='*.go' --exclude='*_test.go' '\.(Counter|Gauge|Histogram)\([^,)]+' internal cmd | sed -E 's/^\.[A-Za-z]+\(//' | sort -u); do
	case $arg in
	'"'*) metric=$(echo "$arg" | tr -d '"') ;;
	*)
		metric=$(grep -rhoE --include='*.go' "\b${arg##*.} += +\"[a-z_]+\"" internal cmd | grep -oE '"[a-z_]+"' | tr -d '"' | head -n 1)
		[ -n "$metric" ] || {
			err "metric name $arg is neither a string literal nor a constant declared under internal/ or cmd/"
			continue
		}
		;;
	esac
	metrics="$metrics $metric"
done
metrics=$(echo $metrics | tr ' ' '\n' | sort -u)
documented "metric names under internal/ and cmd/" "$metrics" docs/OBSERVABILITY.md \
	"metric %s is not cataloged in docs/OBSERVABILITY.md"
documented "HTTP endpoints from internal/server" \
	"$(go_names 'HandleFunc\("(GET|POST|PUT|DELETE) [^"]+"' internal/server)" docs/SERVICE.md \
	"endpoint %s (internal/server) is not documented in docs/SERVICE.md"
documented "log events from internal/server/log.go and internal/llm/backends.go" \
	"$(go_names 'ev[A-Za-z]+ += +"[a-z_.]+"' internal/server/log.go internal/llm/backends.go)" docs/OBSERVABILITY.md \
	"log event %s is not cataloged in docs/OBSERVABILITY.md"
llm_flags=$(go_names 'flag\.[A-Za-z0-9]+\("llm-[a-z-]+"' cmd/wasabi cmd/wasabid)
documented "-llm-* flags from cmd/wasabi and cmd/wasabid" "$(echo "$llm_flags" | sed 's/^/-/')" docs/RESILIENCE.md \
	"flag %s is not documented in docs/RESILIENCE.md"
documented "generator idioms from internal/corpusgen/idioms.go" \
	"$(go_names 'Idiom[A-Za-z]+ += +"[a-z-]+"' internal/corpusgen/idioms.go)" docs/CORPUSGEN.md \
	"generator idiom %s (internal/corpusgen) is not documented in docs/CORPUSGEN.md"
documented "bug classes from internal/apps/meta/meta.go" \
	"$(go_names '[A-Za-z]+ Bug += +"[a-z-]+"' internal/apps/meta/meta.go)" docs/CORPUS.md \
	"bug class %s (internal/apps/meta) is not documented in docs/CORPUS.md"
documented "FactsSchema from internal/sast/facts.go" \
	"$(go_names 'FactsSchema = "[^"]+"' internal/sast/facts.go)" docs/ARCHITECTURE.md \
	"facts format version %s (internal/sast) is not documented in docs/ARCHITECTURE.md"

# 4, catalog→code: every metric named in a catalog row's first cell
# must be registered.
for metric in $(sed -n 's/^| *\(`[^|]*\)|.*/\1/p' docs/OBSERVABILITY.md | grep -oE '`[a-z][a-z0-9_]*(\{[^}]*\})?`' | sed -E 's/`//g; s/\{.*//' | sort -u); do
	echo "$metrics" | grep -qxF "$metric" ||
		err "docs/OBSERVABILITY.md catalogs metric $metric, which no non-test Go under internal/ or cmd/ registers"
done

# 7, docs→code: every -llm-* flag the docs name must be registered.
for hit in $(grep -HoE -- '(^|[^A-Za-z0-9_-])-llm-[a-z]([a-z-]*[a-z])?' README.md EXPERIMENTS.md docs/*.md | sed -E 's/:[^-]*-/:/' | sort -u); do
	echo "$llm_flags" | grep -qxF "${hit#*:}" ||
		err "${hit%%:*} names flag -${hit#*:}, which neither cmd/wasabi nor cmd/wasabid registers"
done

# 9. The documented per-app composition table must match the manifests.
table=$(go run ./cmd/studyreport -corpus-table 2>/dev/null)
if [ -z "$table" ]; then
	err "studyreport -corpus-table produced no output"
else
	echo "$table" | while IFS= read -r line; do
		[ -n "$line" ] || continue
		grep -qF "$line" docs/CORPUS.md ||
			echo "docs-check: composition-table row not found in docs/CORPUS.md: $line" >&2
	done
	missing=$(echo "$table" | while IFS= read -r line; do
		[ -n "$line" ] || continue
		grep -qF "$line" docs/CORPUS.md || echo x
	done)
	[ -z "$missing" ] || fail=1
fi

# 11. Every named command must exist.
for hit in $(
	{
		grep -HoE 'cmd/[a-z][a-z0-9_-]*' README.md DESIGN.md EXPERIMENTS.md docs/*.md
		grep -rHoE --include='*.go' --exclude-dir=bench 'cmd/[a-z][a-z0-9_-]*' .
	} | sort -u
); do
	[ -d "${hit#*:}" ] || err "${hit%%:*} references ${hit#*:}, which does not exist"
done

# 12. Every command synopsis must list exactly the flags it registers.
for main in cmd/*/main.go; do
	usage=$(awk '
		/^\/\/ Usage:$/ { u = 1; next }
		u && /^\/\/\t/ { print; started = 1; next }
		u && /^\/\/$/ { next }
		u && started { exit }
	' "$main")
	[ -n "$usage" ] || continue
	listed=$(echo "$usage" | grep -oE '(^|[[ 	])-[a-z][a-z0-9-]*' | sed -E 's/^[^-]*-//' | sort -u)
	registered=$(grep -oE 'flag\.[A-Za-z0-9]+\("[a-z][a-z0-9-]*"' "$main" | grep -oE '"[^"]+"' | tr -d '"' | sort -u)
	for f in $listed; do
		echo "$registered" | grep -qxF "$f" ||
			err "$main: Usage names -$f, which the command does not register"
	done
	for f in $registered; do
		echo "$listed" | grep -qxF "$f" ||
			err "$main: flag -$f is missing from the Usage block"
	done
done

if [ "$fail" -ne 0 ]; then
	echo "docs-check: FAILED" >&2
	exit 1
fi
echo "docs-check: OK"
