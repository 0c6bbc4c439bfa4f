# BioNav developer targets. Stdlib-only project; gofmt, go vet, and the
# in-repo bionav-lint analyzer are the full lint suite.

GO ?= go

.PHONY: all check build test race vet fmt lint lint-fix-audit checks-test golden-test fuzz-smoke bench bench-smoke bench-json bench-check bench-diff loc anytime-test faults-test chaos-test metrics-test parallel-test ingest-test load-test load-bench experiments demo clean

all: fmt vet lint test build

# Full pre-merge gate: formatting, vet, the project linter, build, tests,
# and the race detector.
check: fmt vet lint build test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then echo "gofmt -s needed:"; echo "$$out"; exit 1; fi

# Project-invariant static analysis: determinism, context discipline,
# logging hygiene, error wrapping, concurrency discipline (guarded
# fields, atomics, goroutine supervision), and the cross-artifact
# metric/fault-site reconciliation (docs/STATIC_ANALYSIS.md).
lint:
	$(GO) run ./cmd/bionav-lint ./...

# Snapshot the module's //lint:ignore inventory (rule → count → files)
# into LINT_BASELINE.json. The baseline is committed: a PR that grows a
# rule's suppression count shows that spend in its diff.
lint-fix-audit:
	$(GO) run ./cmd/bionav-lint -audit > LINT_BASELINE.json
	@cat LINT_BASELINE.json

# Deep-assertion build: internal/check's EdgeCut/active-tree/cost-model
# validations panic on violation in every navigation test.
checks-test:
	$(GO) test -race -tags bionav_checks ./...

# Behaviour goldens under testdata/golden: the TOPDOWN cut sequences of
# every Table I query under every policy (topdown.golden), the rendered
# views of a fixed EXPAND/BACKTRACK script (views.golden), the DP's
# expected cost and |T_R| before every oracle EXPAND under hro-default and
# hro-discup (dpcost.golden), and the HTTP transcript of a fixed API
# script on the -demo corpus (http.golden). Regenerate with -update only
# for an intended behaviour change.
golden-test:
	$(GO) test -count=1 -run 'BehaviourGolden|ViewGolden|DPCostGolden' ./internal/experiments
	$(GO) test -count=1 -run 'TranscriptGolden' ./internal/server

# Short fuzz runs of the differential Opt-EdgeCut, PolyCut, k-partition,
# active-tree and navigation-tree build targets, and the parsers that read
# outside input: the /api/query keyword parser, the MeSH ASCII and MEDLINE
# XML readers behind bionav.Import, the frame scanner every durable file
# goes through, and the ingest-log batch decoder — CI-sized smoke, not a
# campaign.
fuzz-smoke:
	$(GO) test -run FuzzOptEdgeCut -fuzz FuzzOptEdgeCut -fuzztime 10s ./internal/core
	$(GO) test -run FuzzPolyCut -fuzz FuzzPolyCut -fuzztime 10s ./internal/core
	$(GO) test -run FuzzKPartition -fuzz FuzzKPartition -fuzztime 10s ./internal/core
	$(GO) test -run FuzzActiveTree -fuzz FuzzActiveTree -fuzztime 10s ./internal/core
	$(GO) test -run FuzzBuild -fuzz FuzzBuild -fuzztime 10s ./internal/navtree
	$(GO) test -run FuzzParseQuery -fuzz FuzzParseQuery -fuzztime 10s ./internal/index
	$(GO) test -run FuzzParseMeSHASCII -fuzz FuzzParseMeSHASCII -fuzztime 10s ./internal/hierarchy
	$(GO) test -run FuzzParseMedlineXML -fuzz FuzzParseMedlineXML -fuzztime 10s ./internal/corpus
	$(GO) test -run FuzzScan -fuzz FuzzScan -fuzztime 10s ./internal/wal
	$(GO) test -run FuzzIngestBatch -fuzz FuzzIngestBatch -fuzztime 10s ./internal/store

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# Every benchmark in the module, run once: a benchmark that fails or
# b.Fatals (BenchmarkSessionReplay asserts cut-memo hits) fails the
# target. Checks that the benchmarks perf claims rest on still run, not
# how fast they are.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Fault-injection suite: every TestFault* arms internal/faults failpoints
# to prove the degradation paths fire (see docs/RESILIENCE.md) — including
# the journal's append/fsync/recover sites.
faults-test:
	$(GO) test -race -run '^TestFault' ./...

# Crash-recovery gate: a real journaled server subprocess is kill -9'd
# mid-EXPAND and restarted on the same journal directory; every
# acknowledged action must recover byte-identically and the in-flight one
# must not corrupt anything (docs/RESILIENCE.md §5).
chaos-test:
	BIONAV_CHAOS=1 $(GO) test -race -run '^TestChaos' -count=1 -v ./internal/server

# Observability gate: boots bionav-server against a synthetic corpus,
# scrapes /metrics, and fails if any metric in the catalog
# (docs/OBSERVABILITY.md) is missing; also races the obs primitives and
# the request middleware (see docs/OBSERVABILITY.md).
metrics-test:
	$(GO) test -race -run 'Metrics|RequestID|Trace|Probe|Stats' ./cmd/bionav-server ./internal/server
	$(GO) test -race ./internal/obs

# Concurrency gate: the parallel EXPAND pipeline raced at GOMAXPROCS=4 —
# parallel-vs-serial differential tests, the fan-out width of
# SolveComponents, the navigation-tree build against its oracle (its
# scratch is pooled), the nav-cache stampede proof, batch EXPAND
# degradation, the TTL-vs-in-flight-EXPAND race, concurrent sessions
# racing on a tree's first-use aggregates, and the cut memo the sessions
# on a tree share: its differential test once, and its race test ten
# times.
parallel-test:
	GOMAXPROCS=4 $(GO) test -race -run 'SolveComponents|FansOut|ExpandBatch|FaultBatch|BuildMatchesOracle|GetOrBuild|ExpandAllParallel|ConcurrentExpand|SessionExpired|TTL|SharedAggregates|CutMemoMatchesFreshSolve' ./internal/core ./internal/navtree ./internal/navigate ./internal/server
	GOMAXPROCS=4 $(GO) test -race -count=10 -run 'CutMemoConcurrentSessions' ./internal/navigate

# Live-corpus gate: the incremental-ingest layer raced end to end —
# copy-on-write snapshot/index/corpus deltas, ingest-log durability and
# replay, codec strict-ascent validation, torn-tail accounting,
# last-wins upserts, epoch-keyed nav-cache invalidation, the pinned
# mid-session acceptance contract, recovery epoch misses, and the
# exhaustive crash-point test of the log format every durable file uses
# (DESIGN.md §12, docs/RESILIENCE.md §5).
ingest-test:
	$(GO) test -race -run 'Ingest|Snapshot|Epoch|CitationCodec|LastWin|TornTail|Delta|Apply|CrashPoint' \
		./internal/store ./internal/index ./internal/corpus ./internal/navtree ./internal/server ./internal/wal

# Load-harness gate: the fixed-seed open-loop smoke (nonzero successes,
# zero unexpected failures against an in-process server), the session
# trace determinism proof, the sweep's client/server cross-check, and the
# drain-shed contract pin — all raced (docs/LOADGEN.md).
load-test:
	$(GO) test -race ./internal/loadgen ./cmd/bionav-loadgen

# Record a capacity curve: self-hosted Table I workload server, three
# geometric offered-load steps, BENCH_load.json out — then validate its
# bionav-load/v1 schema.
load-bench:
	$(GO) run ./cmd/bionav-loadgen -scale small -seed 2009 -rate 4 -rate-factor 2 \
		-steps 3 -step-duration 2s -think 20ms -actions 5 -out BENCH_load.json
	$(GO) run ./cmd/bionav-benchcheck BENCH_load.json

# Machine-readable core benchmark run, for before/after comparisons.
# Includes the navigation-tree build benchmarks, the
# instrumentation-overhead benchmark from the repo root, the
# session-replay (cut-memo) benchmarks from internal/navigate, plus a
# GOMAXPROCS=4 pass of the SolveComponents benchmarks, whose parallel4
# arms fan out across GOMAXPROCS goroutines, so the recorded speedup-x /
# dp-speedup-x metrics reflect the parallel configuration.
# Every other pass runs at -cpu 1, whatever the host's CPU count: go test
# names a row by its GOMAXPROCS (BenchmarkKPartition-2 on a 2-CPU box,
# no suffix at 1), and bench-diff matches rows by name, so rows recorded
# at another count would compare with none of the committed ones.
# Ends by validating the appended file's JSONL integrity (bench-check).
bench-json:
	$(GO) test -json -bench=. -benchmem -cpu 1 -run='^$$' ./internal/core ./internal/navtree . > BENCH_core.json
	$(GO) test -json -bench='BenchmarkSessionReplay' -cpu 1 -run='^$$' ./internal/navigate >> BENCH_core.json
	GOMAXPROCS=4 $(GO) test -json -bench='BenchmarkSolveComponents' -run='^$$' ./internal/core >> BENCH_core.json
	$(GO) test -json -bench='BenchmarkIngest' -cpu 1 -run='^$$' ./internal/store >> BENCH_core.json
	$(GO) run ./cmd/bionav-benchcheck BENCH_core.json

# Bench trajectory: per benchmark, ns/op, B/op and allocs/op of the
# working tree's BENCH_core.json (after `make bench-json`) against the
# committed one, with names found on one side only listed as added or
# removed.
bench-diff:
	git show HEAD:BENCH_core.json | $(GO) run ./cmd/bionav-benchcheck -compare - BENCH_core.json

# JSONL guard for recorded benchmark baselines: every line of every
# recorded BENCH file must parse as a standalone JSON object (and
# BENCH_load.json additionally against its capacity-curve schema), or
# before/after comparisons silently read a truncated run.
bench-check:
	$(GO) test ./cmd/bionav-benchcheck
	$(GO) run ./cmd/bionav-benchcheck BENCH_core.json BENCH_load.json

# Anytime-optimization gate: the PolyCut DP differential tests, the
# grade ladder, the w8d3 anytime-beats-static acceptance scenario, and
# the cut-memo suite (memo hits, exact keys, the differential and race
# tests, and imports kept out of the memo) — raced at a tight GOMAXPROCS
# so the memo's locking is exercised under contention.
anytime-test:
	GOMAXPROCS=4 $(GO) test -race -run 'PolyCut|Anytime|PolyPolicy|SolverCacheReplayHit|SolverCacheBatchReplay|CutMemo|ReplayKeepsCutsOutOfMemo' ./internal/core ./internal/navigate ./internal/server

# Non-test Go lines per package directory and for the whole module,
# leaving out servebench, the linter's fixtures and build outputs: the
# size figures ROADMAP.md and CHANGES.md quote.
loc:
	@find . \( -path ./servebench -o -path ./cmd/bionav-lint/testdata -o -path ./.bench_build -o -path ./.git \) -prune \
		-o -name '*.go' ! -name '*_test.go' -print | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Regenerate every table and figure of the paper's evaluation (§VIII).
experiments:
	$(GO) run ./cmd/bionav-experiments -scale full

# Build a demo database and open the web UI on :8080.
demo:
	$(GO) run ./cmd/bionav-gen -workload -out bionav-db
	$(GO) run ./cmd/bionav-server -db bionav-db

clean:
	rm -rf bionav-db test_output.txt bench_output.txt
