# cdml — Continuous Deployment of Machine Learning Pipelines (EDBT 2019)

GO ?= go

.PHONY: all check build bench-module vet fmt-check lint analysistest test test-short race cover bench bench-smoke bench-record bench-gate chaos census census-check fuzz fuzz-smoke experiments examples clean

all: build vet test

# The full pre-merge gate: compile (both modules), vet + custom analyzers,
# the size ratchet, then the whole suite under the race detector.
check: build bench-module lint census-check race

build:
	$(GO) build ./...

# benchmark/ is a module of its own (cdml/benchmark, replace cdml => ../), so
# `go build ./...` never compiles it: vet and short-test it explicitly, or an
# API deletion in this module breaks the system benchmark silently.
bench-module:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test -short ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would rewrite a file (the analyzer fixtures under
# testdata/ are not held to it).
fmt-check:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' | xargs gofmt -l); \
		[ -z "$$out" ] || { echo "gofmt -w:"; echo "$$out"; exit 1; }

# lint runs go vet, the gofmt check, plus the repo's own nine analyzers
# (globalrand, floateq, mustcheck, hotpath, guardedby, snapfreeze, ctxflow,
# determinism, deadexport — see internal/analysis) and the //lint:allow format
# audit. Fails on any finding.
lint: vet fmt-check
	$(GO) run ./cmd/cdml-lint ./...

# analysistest runs the analyzers' own test suite: the framework units plus
# every fixture package under internal/analysis/testdata (positive findings,
# ordered multi-diagnostic want lines, and suppression coverage).
analysistest:
	$(GO) test ./internal/analysis/...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Coverage over everything except analyzer test fixtures (testdata is not a
# real package tree; the explicit filter keeps the profile honest even if the
# fixtures ever gain buildable packages).
cover:
	$(GO) test -short -coverprofile=cover.out $$($(GO) list ./internal/... . | grep -v '/testdata')
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# One-iteration CI smoke of the multi-worker paths: the warm-up's look-ahead
# (engine.StreamCtx on a NumCPU engine) and prediction beside a training
# writer, run once without measuring them (use `make bench` for numbers).
bench-smoke:
	$(GO) test -bench 'BenchmarkWarmup|BenchmarkPredictDuringTraining' -benchtime 1x -benchmem -run '^$$' .

# Record this PR's benchmark baseline: make bench-record PR=7 writes
# BENCH_7.json (commit it — the file is the repo's perf trajectory). Each
# benchmark runs five times; a row is the median ns/op and its quartiles.
bench-record:
	$(GO) run ./cmd/cdml-bench -record -pr $(PR)

# CI regression gate: run the hot-path suite and compare against the newest
# committed BENCH_*.json. allocs/op is gated strictly (0 → any fails);
# ns/op compares medians at a 3x threshold because the baseline and the CI
# runner are different machines — the gate exists to catch step changes,
# not noise — and a row whose own quartiles are further apart than that is
# reported unresolved.
bench-gate:
	$(GO) run ./cmd/cdml-bench -compare -threshold 3.0 -out bench_current.json

# Fault-injection suite (skipped by -short runs): torn-checkpoint fallback,
# kill-recover-kill-recover, torn WAL tails, failed storage puts,
# kill-during-promotion, replica kill-resync/swap-under-load, cdml-serve's
# boot matrix (both doors × cold start, kill with queued chunks, torn newest
# checkpoint), and internal/core's life generator (readers checked against a
# sequential run, and a power cut at every I/O boundary of each life; ~20 s
# of a ~22 s run on 2 vCPU), all under the race detector.
chaos:
	$(GO) test -race -run '^TestChaos' ./cmd/cdml-serve/ ./internal/core/ ./internal/registry/ ./internal/serve/ ./internal/wal/ -v

# The size census CHANGES.md reports per PR (ROADMAP item 4), over the
# non-test Go files outside benchmark/: lines, code lines (not blank, not a
# // comment), exported identifiers (top-level funcs, methods on exported
# receivers, types, vars and consts, grouped declarations included; analyzer
# fixtures under testdata/ left out), cdml-serve flags, route-table rows, the
# files that import encoding/gob (none: the ratchet keeps it so), and option
# fields — what a caller can set besides a flag: the exported field lines of
# core.Config, core.CheckpointPolicy, registry.Options, Quotas, AutoChallenger
# and Policy and wal.Options, plus the With* functions of
# internal/serve and internal/data — and the bytes of README.md + DESIGN.md,
# the prose a reader has to get through (CHANGES.md and ROADMAP.md grow by
# design and stay out).
CENSUS_FILES = find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*'
OPTION_FILES = find internal/core internal/registry internal/wal internal/data internal/serve -name '*.go' -not -name '*_test.go'
census:
	@echo "non-test Go lines:    $$($(CENSUS_FILES) | xargs cat | wc -l)"
	@echo "code lines:           $$($(CENSUS_FILES) | xargs cat | grep -v '^[[:space:]]*//' | grep -vc '^[[:space:]]*$$')"
	@echo "exported identifiers: $$($(CENSUS_FILES) -not -path '*/testdata/*' | xargs awk '\
		FNR == 1 { block = 0 } \
		/^(var|const|type) \($$/ { block = 1; next } \
		block && /^\)/ { block = 0 } \
		block && /^\t[A-Z]/ { n++ } \
		/^func [A-Z]/ || /^func \([a-z_]+ \*?[A-Z][A-Za-z0-9_]*(\[[^]]*\])?\) [A-Z]/ || /^(var|const|type) [A-Z]/ { n++ } \
		END { print n }')"
	@echo "cdml-serve flags:     $$(grep -cE '\b(flag|fs)\.(String|Int|Int64|Bool|Duration|Float64)(Var)?\(' cmd/cdml-serve/main.go)"
	@echo "route-table rows:     $$(grep -cE '\bs\.(scoped|global)\(' internal/serve/serve.go)"
	@echo "gob importers:        $$($(CENSUS_FILES) | xargs grep -l '"encoding/gob"' | wc -l)"
	@echo "option fields:        $$($(OPTION_FILES) | xargs awk '\
		/^type (Config|CheckpointPolicy|Options|Quotas|AutoChallenger|Policy) struct \{$$/ { body = 1; next } \
		body && /^\}/ { body = 0 } \
		body && /^\t[A-Z]/ { n++ } \
		/^func With[A-Z]/ { n++ } \
		END { print n }')"
	@echo "doc bytes:            $$(cat README.md DESIGN.md | wc -c)"

# The size ratchet, bench-gate's analogue for lines: CENSUS is `make census`
# as of the last commit, and every number in it but the first (which counts
# comments) may only fall. A change that grows the tree edits CENSUS in the
# same diff — `make census > CENSUS` — so the growth is a reviewed line.
census-check:
	@$(MAKE) -s census | awk -F': *' ' \
		NR == FNR { was[$$1] = $$2; next } \
		FNR > 1 && $$2 > was[$$1] { printf "census: %s grew %d -> %d (CENSUS)\n", $$1, was[$$1], $$2; bad = 1 } \
		FNR > 1 && $$2 < was[$$1] { printf "census: %s fell %d -> %d: make census > CENSUS\n", $$1, was[$$1], $$2 } \
		END { exit bad }' CENSUS -

# Brief fuzzing passes over everything that reads bytes it did not write: the
# wire-format parsers, the chunk-file decoders, the snapshot frame codec, the
# ingest log's Open + Replay over an arbitrary active segment, the snapshot
# payload decoder, the request-body reader and the -deployments file / spec
# decoders; over the weight ring's refresh, under an arbitrary mix of
# sparse and dense steps, pins, unpins and publishes; and over the online
# pass's in-place rewrite of the served rows (FuzzFoldReuse), which must
# equal the fold's Transform on any chunks. One target list, two durations.
# The payload seeds are whole checkpoints, so minimizing a new input is
# bounded, or it eats the run.
FUZZ_TARGETS = \
	internal/dataset:FuzzURLParser internal/dataset:FuzzTaxiParser internal/dataset:FuzzRatingsParser \
	internal/data:FuzzDecodeFeatureChunk internal/data:FuzzDecodeRawChunk \
	internal/snapstream:FuzzDecodeFrame internal/snapstream:FuzzNextFrame \
	internal/wal:FuzzReplay \
	internal/core:FuzzDecodeSnapshotPayload internal/core:FuzzRingRefresh \
	internal/pipeline:FuzzFoldReuse \
	internal/serve:FuzzReadRecords cmd/cdml-serve:FuzzDeploymentsFile
FUZZTIME = 15s
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t $(FUZZTIME)"; \
		$(GO) test ./$${t%%:*}/ -run '^$$' -fuzz "^$${t##*:}$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 2s; \
	done

# 10-second CI smoke of the same fuzz targets.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# Regenerate every table and figure of the paper, the extensions included, at
# the default size (EXPERIMENTS.md). The committed EXPERIMENTS.json is the same
# run at -scale small with -json.
experiments:
	$(GO) run ./cmd/experiments -exp all -scale medium

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/customcomponent
	$(GO) run ./examples/driftdetect
	$(GO) run ./examples/recsys
	$(GO) run ./examples/checkpointrestore
	$(GO) run ./examples/urlclassify -days 15 -chunks-per-day 4 -rows 40
	$(GO) run ./examples/taxiduration -chunks 120 -rows 60

clean:
	rm -f cover.out test_output.txt bench_output.txt bench_current.json
