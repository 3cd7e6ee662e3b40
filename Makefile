# Tier-1 verification entry point: `make check` runs exactly what CI and
# the roadmap expect before a change lands.
GO ?= go

.PHONY: check vet lint build test race bench-e2e bench-test profile-study smoke fuzz-smoke loc

# check runs the stages one sub-make at a time and prints each stage's wall
# seconds, so the gate's cost is a number in the log rather than a guess.
CHECK_STAGES = vet lint build race bench-test fuzz-smoke smoke

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
# rejects dead code at package granularity: an internal/ package that no
# non-test package imports. LINT_TEST_SUPPORT lists the packages that exist
# to be imported by other packages' tests.
LINT_TEST_SUPPORT = mira/internal/telemetrynet/faultinject

lint:
	$(GO) run scripts/lint_metrics.go
	@$(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | awk -v support='$(LINT_TEST_SUPPORT)' ' \
		BEGIN { n = split(support, s, " "); for (i = 1; i <= n; i++) imported[s[i]] = 1 } \
		{ if ($$1 ~ /\/internal\//) internal[$$1] = 1; for (i = 2; i <= NF; i++) imported[$$i] = 1 } \
		END { for (p in internal) if (!(p in imported)) { print "lint: " p " is imported by no non-test package"; bad = 1 } exit bad }'

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is the tier-1 test gate: the tsdb engine is exercised by a
# concurrent ingest+query test that only means something under -race.
race:
	$(GO) test -race ./...

# smoke is the end-to-end persistence round trip: mirasim -data flushes
# segment files, miraanalyze -data reopens them warm, the figures must match
# the CSV in-memory path, and a corrupted segment must fail descriptively.
smoke:
	./scripts/smoke.sh

# fuzz-smoke gives each fuzz target a short budget: segment parsing, block
# decoding, the network frame parser, the trace-header parser, and the
# campaign job-spec/claim envelopes must reject arbitrary bytes cleanly
# (wrapped sentinel errors for the wire formats, a fresh root trace for
# X-Mira-Trace), never a panic. The go fuzzer runs one target per
# invocation.
fuzz-smoke:
	$(GO) test ./internal/tsdb/ -run '^$$' -fuzz '^FuzzOpenSegment$$' -fuzztime 10s
	$(GO) test ./internal/tsdb/ -run '^$$' -fuzz '^FuzzDecodeBlock$$' -fuzztime 10s
	$(GO) test ./internal/telemetrynet/ -run '^$$' -fuzz '^FuzzDecodeIngestFrame$$' -fuzztime 10s
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
# study_local's records_per_s measures) and prints the 30 heaviest functions
# by cumulative time. Profile and test binary stay in .bench_build/ for
# `go tool pprof -list`.
profile-study:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^BenchmarkStudyRun$$' -benchtime 5x \
		-o .bench_build/study.test -cpuprofile .bench_build/study.cpu.prof .
	$(GO) tool pprof -top -cum -nodecount 30 .bench_build/study.test .bench_build/study.cpu.prof

# loc prints non-test Go lines per package and their total — the size the
# roadmap tracks PR over PR (CHANGES.md records the table). bench/ is a
# module of its own with its own history and is left out.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
