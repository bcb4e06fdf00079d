#!/bin/sh
# docs_check.sh — verify that the documentation tree is self-consistent.
#
# Checks, in order:
#   1. Every *.md path mentioned in a Go source file exists (godoc
#      comments point readers at docs; a rename must not strand them).
#   2. Every relative markdown link in README.md and docs/*.md resolves
#      to an existing file (anchors and absolute URLs are skipped).
#   3. Every internal/* package states its paper section (a "§"
#      reference) somewhere in its package documentation.
#   4. Every metric name passed to Counter, Gauge or Histogram in
#      non-test Go under internal/ and cmd/ (a string literal, or a
#      constant declared there) is cataloged in docs/OBSERVABILITY.md,
#      and every metric a catalog row names is registered that way or
#      added at render time with Snapshot.AddGauge — the catalog must
#      neither drift behind the code nor keep a deleted series.
#   5. Every HTTP endpoint the server registers ("METHOD /path" mux
#      patterns) is documented in docs/SERVICE.md.
#   6. Every structured-log event name the server defines (the ev*
#      constants in internal/server/log.go) is cataloged in
#      docs/OBSERVABILITY.md — likewise the routing-layer events in
#      internal/llm/backends.go.
#   7. The -llm-backends / -llm-hedge-after flags are documented in
#      docs/RESILIENCE.md, and every -llm-* flag that README.md,
#      EXPERIMENTS.md or docs/*.md names is registered by cmd/wasabi or
#      cmd/wasabid — a deleted flag must not linger in the docs.
#   8. Every retry idiom the corpus generator emits (the Idiom*
#      constants in internal/corpusgen/idioms.go) is documented in
#      docs/CORPUSGEN.md, and every ground-truth bug class (the Bug
#      constants in internal/apps/meta) appears in docs/CORPUS.md — an
#      undocumented idiom or class fails the gate.
#   9. The per-app composition table in docs/CORPUS.md matches the one
#      computed from the manifests (`studyreport -corpus-table`) line
#      for line — the documented table must not drift from the
#      ground truth.
#  10. The retry-facts format version (sast.FactsSchema) appears
#      verbatim in docs/ARCHITECTURE.md — a version bump must update
#      the documented format.
#  11. Every cmd/<name> named in README.md, DESIGN.md, EXPERIMENTS.md,
#      docs/*.md or a Go source outside bench/ is an existing directory
#      under cmd/ — a deleted command must not strand its references.
#
# Exits non-zero listing every violation; run via `make docs-check`.
set -u
cd "$(dirname "$0")/.."

fail=0
err() {
	echo "docs-check: $*" >&2
	fail=1
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

# 4. Every metric name the code registers must be cataloged in
# docs/OBSERVABILITY.md. A name argument is a string literal or a
# constant (possibly package-qualified) declared under internal/ or cmd/.
registered=""
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
	registered="$registered $metric"
	grep -qwF "$metric" docs/OBSERVABILITY.md ||
		err "metric $metric is not cataloged in docs/OBSERVABILITY.md"
done
# The other way: every metric named in a catalog row's first cell must
# be registered. Render-time series count: AddGauge("name", ...) adds
# name, and AddGauge(x+"_suffix", ...) adds a registered name plus the
# suffix (the scheduler's *_quantile gauges).
go_src() { grep -rhoE --include='*.go' --exclude='*_test.go' "$1" internal cmd; }
registered="$registered $(go_src '\.AddGauge\("[a-z_]+"' | grep -oE '"[a-z_]+"' | tr -d '"')"
for suffix in $(go_src '\.AddGauge\([A-Za-z_.]+ *\+ *"[a-z_]+"' | grep -oE '"[a-z_]+"' | tr -d '"' | sort -u); do
	for metric in $registered; do
		registered="$registered $metric$suffix"
	done
done
for metric in $(sed -n 's/^| *\(`[^|]*\)|.*/\1/p' docs/OBSERVABILITY.md | grep -oE '`[a-z][a-z0-9_]*(\{[^}]*\})?`' | sed -E 's/`//g; s/\{.*//' | sort -u); do
	case " $registered " in
	*" $metric "*) ;;
	*) err "docs/OBSERVABILITY.md catalogs metric $metric, which no non-test Go under internal/ or cmd/ registers" ;;
	esac
done

# 5. Every registered HTTP endpoint must appear in docs/SERVICE.md
# (pprof endpoints are documented as a family via /debug/pprof/).
for pattern in $(grep -hoE 'HandleFunc\("(GET|POST|PUT|DELETE) [^"]+"' internal/server/*.go | sed -e 's/^HandleFunc("//' -e 's/"$//' -e 's/ /|/' | sort -u); do
	method=${pattern%%|*}
	path=${pattern#*|}
	grep -qF "$path" docs/SERVICE.md ||
		err "endpoint $method $path (internal/server) is not documented in docs/SERVICE.md"
done

# 6. Every structured-log event name must be cataloged in
# docs/OBSERVABILITY.md.
for ev in $(grep -hoE 'ev[A-Za-z]+ += +"[a-z_.]+"' internal/server/log.go internal/llm/backends.go | grep -oE '"[a-z_.]+"' | tr -d '"' | sort -u); do
	grep -qF "$ev" docs/OBSERVABILITY.md ||
		err "log event $ev is not cataloged in docs/OBSERVABILITY.md"
done

# 7. Multi-backend routing flags must be documented, and every -llm-*
# flag the docs name must exist.
for flag in llm-backends llm-hedge-after; do
	grep -q -- "-$flag" docs/RESILIENCE.md ||
		err "flag -$flag is not documented in docs/RESILIENCE.md"
done
llm_flags=$(grep -hoE 'flag\.[A-Za-z0-9]+\("llm-[a-z-]+"' cmd/wasabi/*.go cmd/wasabid/*.go | grep -oE 'llm-[a-z-]+' | sort -u)
for hit in $(grep -HoE -- '(^|[^A-Za-z0-9_-])-llm-[a-z]([a-z-]*[a-z])?' README.md EXPERIMENTS.md docs/*.md | sed -E 's/:[^-]*-/:/' | sort -u); do
	echo "$llm_flags" | grep -qxF "${hit#*:}" ||
		err "${hit%%:*} names flag -${hit#*:}, which neither cmd/wasabi nor cmd/wasabid registers"
done

# 8. Generator taxonomy: every emitted idiom must be documented in
# docs/CORPUSGEN.md, every bug class in docs/CORPUS.md.
for idiom in $(grep -hoE 'Idiom[A-Za-z]+ += +"[a-z-]+"' internal/corpusgen/idioms.go | grep -oE '"[a-z-]+"' | tr -d '"' | sort -u); do
	grep -qF "$idiom" docs/CORPUSGEN.md ||
		err "generator idiom $idiom (internal/corpusgen) is not documented in docs/CORPUSGEN.md"
done
for bug in $(grep -hoE '[A-Za-z]+ Bug += +"[a-z-]+"' internal/apps/meta/meta.go | grep -oE '"[a-z-]+"' | tr -d '"' | sort -u); do
	grep -qF "$bug" docs/CORPUS.md ||
		err "bug class $bug (internal/apps/meta) is not documented in docs/CORPUS.md"
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

# 10. The facts format version must be documented verbatim in
# docs/ARCHITECTURE.md.
facts_schema=$(grep -hoE 'FactsSchema = "[^"]+"' internal/sast/facts.go | grep -oE '"[^"]+"' | tr -d '"')
if [ -z "$facts_schema" ]; then
	err "cannot extract FactsSchema from internal/sast/facts.go"
else
	grep -qF "$facts_schema" docs/ARCHITECTURE.md ||
		err "facts format version $facts_schema (internal/sast) is not documented in docs/ARCHITECTURE.md"
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

if [ "$fail" -ne 0 ]; then
	echo "docs-check: FAILED" >&2
	exit 1
fi
echo "docs-check: OK"
