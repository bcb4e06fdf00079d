GO ?= go

.PHONY: build test vet fmt-check race bench bench-smoke bench-check fuzz-smoke gen-smoke chaos serve-smoke restart-smoke examples docs-check ci all

all: ci

## build: compile every package and command.
build:
	$(GO) build ./...

## test: run the full test suite (tier-1 gate).
test:
	$(GO) test ./...

## vet: run go vet over every package, and over internal/source as
## built for darwin, so its non-Linux stubs keep compiling, and for
## linux/arm64, so its Linux watcher and the stat helper of other Linux
## architectures are vetted off amd64 too.
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/source/
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/source/

## fmt-check: fail when any Go file of the repository (tracked, or new
## and not ignored) is not gofmt-formatted; ignored build output such as
## the benchmark's generated corpora is not checked.
fmt-check:
	test -z "$$(gofmt -l $$(git ls-files -co --exclude-standard '*.go'))"

## race: run the concurrency-sensitive packages under the race detector,
## including the parallel-runner determinism test over the full corpus
## and the worker-pool bound under nesting.
race:
	$(GO) test -race ./internal/core/... ./internal/testkit/... ./internal/fault/... ./internal/trace/... ./internal/vclock/... ./internal/errmodel/... ./internal/obs/... ./internal/cache/... ./internal/server/... ./internal/source/... ./internal/sast/...

## bench: run the Go microbenchmarks used for profiling — the pipeline
## benchmarks (sequential vs parallel), the snapshot-store
## microbenchmarks (cold vs warm load), the cold per-file extraction
## and review over the seed corpus, the warm cross-file merge, the
## report encoder, the disk-entry decoders beside their encoding/json
## reference, a restarted daemon's first job in process, registry
## lookups and span recording, and one warm job through the daemon's
## job path (docs/PERFORMANCE.md).
## Performance numbers come from the repository benchmark instead:
## `bash bench/run.sh` (bench/README.md).
bench:
	$(GO) test -bench 'BenchmarkPipeline' -benchmem -run '^$$' .
	$(GO) test -bench . -benchmem -run '^$$' ./internal/source/ ./internal/sast/ ./internal/llm/ ./internal/report/ ./internal/cache/ ./internal/core/ ./internal/obs/ ./internal/server/

## gen-smoke: generate a 10x synthetic corpus into a temp dir and push
## it through the static-only pipeline — every emitted file must parse,
## every app must identify structures, and the candidate ledger must
## cover the manifest exactly (docs/CORPUSGEN.md).
gen-smoke:
	$(GO) test -run 'TestGenSmoke' -count=1 ./internal/corpusgen/

## bench-smoke: compile and run every benchmark for one iteration — a
## CI gate that keeps the benchmarks building and executable without
## asserting thresholds.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' . ./internal/source/ ./internal/sast/ ./internal/llm/ ./internal/report/ ./internal/cache/ ./internal/core/ ./internal/obs/ ./internal/server/

## fuzz-smoke: fuzz the two hand-written JSON encoders against
## encoding/json for a few seconds each: the report document
## (FuzzAppendIndent) and the daemon's job views (FuzzJobView), whose
## tenant, app codes and error text come from requests; the decoder
## of the kernel's inotify records against a reference encoder
## (FuzzInotifyEvents); and the one-walk evidence and facts reads of a
## parsed file against their reference reads (FuzzEvidenceMatchesReference,
## FuzzFactsMatchReference).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzAppendIndent$$' -fuzztime 5s ./internal/report/
	$(GO) test -run '^$$' -fuzz '^FuzzJobView$$' -fuzztime 5s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzInotifyEvents$$' -fuzztime 5s ./internal/source/
	$(GO) test -run '^$$' -fuzz '^FuzzEvidenceMatchesReference$$' -fuzztime 5s ./internal/llm/
	$(GO) test -run '^$$' -fuzz '^FuzzFactsMatchReference$$' -fuzztime 5s ./internal/sast/

## bench-check: vet and short-test the benchmark module, so an
## internal/ API change that breaks the benchmark's in-process replay
## (bench/replay.go) fails here rather than only in `bash bench/run.sh`.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

## chaos: sweep LLM fault profiles under the race detector — the
## determinism-under-chaos and graceful-degradation gate — plus the
## multi-backend failover drill: a hard primary outage must complete
## the full corpus through the secondary with zero degraded files and
## byte-identical output, every all-sim topology must replay
## byte-identically, counters included, at any worker count, and a
## warm run under any topology must reproduce the cold report from the
## review cache with zero fresh tokens (docs/RESILIENCE.md), and a
## backend that degrades reviews and recovers must get the healthy
## report back, never a memoized degraded merge.
chaos:
	$(GO) test -race -run 'Chaos|ZeroFaultProfile|HardOutage|BudgetExhaustion|Failover|PrimaryOutage|SingleHealthyBackend|SimTopology|ReviewCacheServesEveryTopology' ./internal/core/
	$(GO) test -race ./internal/resilience/ ./internal/llm/

## serve-smoke: end-to-end service exercise — a real wasabid server on a
## loopback port driven through analyze → poll → report → trace →
## metrics, with three tenants submitting concurrently, every warm job
## served from the cache, and /metrics proving the slots overlapped
## (docs/SERVICE.md, docs/SCHEDULING.md); plus the scheduler's
## wall-clock overlap, fairness, and shared-snapshot-store concurrency
## proofs, and the per-job trace-isolation and structured-log
## correlation proofs (docs/OBSERVABILITY.md), and two slots running
## warm jobs over the same derive-once memos (docs/ARCHITECTURE.md).
serve-smoke:
	$(GO) test -race -run 'TestServeSmoke|TestJobsOverlapWallClock|TestSlowTenantCannotStarveFast|TestConcurrentJobsShareSnapshotStore|TestConcurrentWarmJobsShareMemo|TestJobTraceIsolationUnderConcurrency|TestStructuredLogCorrelation' -count=1 ./internal/server/

## restart-smoke: cold-start a real wasabid binary with a persistent
## cache directory, run one job, SIGTERM-drain it, relaunch over the
## same directory and prove the warm job reproduces the cold report
## byte-for-byte with zero parses, zero extractions, zero fresh LLM
## spend and zero injection runs — the portable retry-facts and
## build-keyed dynamic-tier restart guarantee (docs/PERFORMANCE.md,
## docs/ARCHITECTURE.md); plus 20 launches each SIGTERMed the moment
## the daemon announces its address, every one of which must drain
## and exit cleanly.
restart-smoke:
	$(GO) test -run 'TestRestartSmokeProcess|TestSigtermAfterListenDrains' -count=1 ./internal/server/

## examples: run every examples/* program and fail on a non-zero exit,
## so they keep running, not just compiling (examples/quickstart is the
## public facade's only external caller).
examples:
	@for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d >/dev/null || exit 1; done

## docs-check: fail on dangling doc references — .md paths mentioned in
## Go sources, relative links in README.md and docs/*.md, and internal
## packages missing a paper-section (§) godoc reference — and on a
## command whose Usage synopsis disagrees with the flags it registers.
docs-check:
	sh scripts/docs_check.sh

## ci: the local gate — everything the driver checks, in one target.
ci: build test vet fmt-check race chaos serve-smoke restart-smoke bench-smoke bench-check fuzz-smoke gen-smoke examples docs-check
