# Tier-1 verification entry point: `make check` runs exactly what CI and
# the roadmap expect before a change lands.
GO ?= go

.PHONY: check vet lint build test race bench-e2e bench-test profile-study profile-pointreads profile-scan smoke fuzz-smoke loc

# check runs the stages one sub-make at a time and prints each stage's wall
# seconds, so the gate's cost is a number in the log rather than a guess.
CHECK_STAGES = vet lint build race bench-test fuzz-smoke

check:
	@total=0; for stage in $(CHECK_STAGES); do \
		start=$$(date +%s); \
		$(MAKE) --no-print-directory $$stage || exit 1; \
		took=$$(( $$(date +%s) - start )); total=$$(( total + took )); \
		echo "check: $$stage $${took}s"; \
	done; echo "check: total $${total}s"

vet:
	$(GO) vet ./...

# lint statically rejects metric registrations whose names violate the
# mira_[a-z_]+ namespace rule (the obs registry also panics at runtime),
# span name literals that break [a-z][a-z0-9_.]* or register at more than
# one site, and exemplar label keys other than a single trace_id. It then
# rejects dead code at two granularities: an exported function or method in
# internal/ that no non-test file of the module or of bench/ references
# (scripts/lint_exports.go, which has its own allow-list of methods only the
# standard library calls), and an internal/ package that no non-test package
# imports. LINT_TEST_SUPPORT lists the packages that exist to be imported by
# other packages' tests; their exports may be referenced from _test.go files.
# Last, it fails on any file gofmt would rewrite (bench/ included): vet does
# not check formatting, so an unformatted file would otherwise land unseen.
LINT_TEST_SUPPORT = mira/internal/telemetrynet/faultinject

lint:
	$(GO) run scripts/lint_metrics.go
	$(GO) vet scripts/lint_exports.go
	$(GO) run scripts/lint_exports.go $(LINT_TEST_SUPPORT)
	@$(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | awk -v support='$(LINT_TEST_SUPPORT)' ' \
		BEGIN { n = split(support, s, " "); for (i = 1; i <= n; i++) imported[s[i]] = 1 } \
		{ if ($$1 ~ /\/internal\//) internal[$$1] = 1; for (i = 2; i <= NF; i++) imported[$$i] = 1 } \
		END { for (p in internal) if (!(p in imported)) { print "lint: " p " is imported by no non-test package"; bad = 1 } exit bad }'
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "lint: not gofmt-clean:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is the tier-1 test gate: the tsdb engine is exercised by a
# concurrent ingest+query test that only means something under -race. The
# simulator's physics/delivery pipeline is run again at one P, where the
# two goroutines never overlap, and at two, where they do: both must replay
# the golden streams. The predictor stage's worker pool (cross-validation
# fits, mitigation replay) gets the same one-P / two-P pass, and so does the
# hall-wide aggregate pushdown, whose racks run on that pool. The end-to-end
# command tests (mira/cmd, see smoke below) build the commands in a child
# `go build` whose sources the test cache does not track, so that package
# always runs uncached (-count=1) rather than replaying a stale pass. The
# allocation ceilings (tsdb's TestPointReadAllocations and
# TestBoundsAllocations, telemetrynet's TestScanAllocations) run once more
# without -race: the race build skips the pooled ones, because sync.Pool
# drops pooled decode arenas and scan buffers at random under the detector.
race:
	$(GO) test -race $$($(GO) list ./... | grep -vx mira/cmd)
	$(GO) test -count=1 -run Allocations ./internal/tsdb ./internal/telemetrynet
	$(GO) test -race -count=1 ./cmd
	$(GO) test -race -cpu 1,2 -run 'Golden|Determinism|Pipeline' ./internal/sim
	$(GO) test -race -cpu 1,2 -run 'Golden|Determin|Concurrent|CrossValidate|Sweep' ./internal/nn ./internal/core ./internal/mitigation
	$(GO) test -race -cpu 1,2 -run 'AggregateRacks' ./internal/tsdb

# smoke runs only the end-to-end command tests (cmd/smoke_test.go): they
# build the commands and drive them as processes — warm segments against
# the CSV path, scan workers, retention compaction, network push with a
# SIGTERM shutdown, a two-hall fleet, a campaign sweep through a killed
# worker and a restarted dispatcher, corrupt segments. The race stage
# already runs them uncached, so check has no stage of its own.
smoke:
	$(GO) test -count=1 -run '^TestSmoke' ./cmd/...

# fuzz-smoke gives each fuzz target a short budget: the word-at-a-time bit
# writer must write what a bit-at-a-time reference writes; segment parsing,
# block decoding, the telemetry CSV import (miraanalyze -from), the network
# frame parser, the client's chunk-stream and aggregate-frame decoders, the
# trace-header parser, and the campaign job-spec/claim envelopes must reject
# arbitrary bytes cleanly (wrapped sentinel errors for the wire formats, a
# fresh root trace for X-Mira-Trace, an error or every row loaded for the
# CSV), never a panic. Two round-trip properties ride along: a segment file
# either tier's parser accepts must re-encode through the one segment writer
# to the same bytes (FuzzOpenSegment), and a decoded aggregate or series
# frame must re-encode to the bytes it came from, float bit patterns
# included (FuzzDecodeAggs).
# The go fuzzer runs one target per invocation.
fuzz-smoke:
	$(GO) test ./internal/tsdb/ -run '^$$' -fuzz '^FuzzBitWriter$$' -fuzztime 10s
	$(GO) test ./internal/tsdb/ -run '^$$' -fuzz '^FuzzOpenSegment$$' -fuzztime 10s
	$(GO) test ./internal/tsdb/ -run '^$$' -fuzz '^FuzzDecodeBlock$$' -fuzztime 10s
	$(GO) test ./internal/tsdb/ -run '^$$' -fuzz '^FuzzImportCSV$$' -fuzztime 10s
	$(GO) test ./internal/telemetrynet/ -run '^$$' -fuzz '^FuzzDecodeIngestFrame$$' -fuzztime 10s
	$(GO) test ./internal/telemetrynet/ -run '^$$' -fuzz '^FuzzReadChunkStream$$' -fuzztime 10s
	$(GO) test ./internal/telemetrynet/ -run '^$$' -fuzz '^FuzzDecodeAggs$$' -fuzztime 10s
	$(GO) test ./internal/obs/ -run '^$$' -fuzz '^FuzzParseTraceHeader$$' -fuzztime 10s
	$(GO) test ./internal/telemetrynet/ -run '^$$' -fuzz '^FuzzTraceHeaderHandling$$' -fuzztime 10s
	$(GO) test ./internal/campaign/ -run '^$$' -fuzz '^FuzzDecodeJobSpec$$' -fuzztime 10s
	$(GO) test ./internal/campaign/ -run '^$$' -fuzz '^FuzzParseClaimResponse$$' -fuzztime 10s

# bench-e2e is the repository's benchmark (BENCHMARK.json, bench/README.md):
# every workload, untraced then traced, five times. Compare two commits with
# `bash bench/run.sh -compare old.json new.json`.
bench-e2e:
	bash bench/run.sh -seed 42 -runs 5 -out bench/out/new.json

# bench-test vets and tests the benchmark harness itself; bench/ is a module
# of its own, so vet/race above never see it.
bench-test:
	cd bench && $(GO) vet . && $(GO) test -race .

# profile-study names the layer a twin-side regression sits in, the way a
# traced bench run (-trace 1) does for the serving side: it CPU-profiles
# BenchmarkStudyRun (a 30-day mira.RunStudy into a tsdb store, what
# study_local's records_per_s measures), reports its allocations per run and
# prints the 30 heaviest functions by cumulative time. Profile and test
# binary stay in .bench_build/ for `go tool pprof -list`.
profile-study:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^BenchmarkStudyRun$$' -benchtime 5x -benchmem \
		-o .bench_build/study.test -cpuprofile .bench_build/study.cpu.prof .
	$(GO) tool pprof -top -cum -nodecount 30 .bench_build/study.test .bench_build/study.cpu.prof

# profile-pointreads does the same for the serving side's point reads: it
# CPU-profiles BenchmarkPointReads (Query, Series and hourly Aggregate over
# 1 h to 30 d windows of a 60-day sealed store, ending at the newest sample
# and in history, the cells of dashboard_read's mix) and prints the 30
# heaviest functions by cumulative time, so a move in dashboard_read or
# tsdb.query_us names its decode, search or materialization step.
profile-pointreads:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^BenchmarkPointReads$$' -benchmem \
		-o .bench_build/tsdb.test -cpuprofile .bench_build/pointreads.cpu.prof ./internal/tsdb
	$(GO) tool pprof -top -cum -nodecount 30 .bench_build/tsdb.test .bench_build/pointreads.cpu.prof

# profile-scan does the same for the merged scan: it CPU-profiles
# BenchmarkScan (the full 48-rack scan of a 60-day store in 30-day blocks,
# back to back and with the pools emptied before each scan, the decode and
# merge behind replay_remote and study_local's replay) and prints the 30
# heaviest functions by cumulative time.
profile-scan:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^BenchmarkScan$$' -benchmem \
		-o .bench_build/tsdb.test -cpuprofile .bench_build/scan.cpu.prof ./internal/tsdb
	$(GO) tool pprof -top -cum -nodecount 30 .bench_build/tsdb.test .bench_build/scan.cpu.prof

# loc prints non-test Go lines per package and their total — the size the
# roadmap tracks PR over PR (CHANGES.md records the table). bench/ is a
# module of its own with its own history and is left out.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
