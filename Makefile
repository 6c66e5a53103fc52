# Developer checks. `make check` is the gate every change must pass:
# build + vet + full test suite under the race detector, plus vet and tests
# of the benchmark module (a library API change that breaks bench/ fails
# here, not in the benchmark run).

GO ?= go

# Snapshot knobs for bench-save: where the snapshot lands and how long each
# benchmark runs. Longer BENCH_TIME gives steadier numbers.
BENCH_OUT ?= BENCH_10.json
BENCH_TIME ?= 200ms

# Generous wall-clock ceiling for the full-paper-scale smoke assertion:
# BenchmarkPersonFullScale runs about 0.3 s/op, and its whole -benchtime=1x
# run takes under 10 s with set-up, on a 2-vCPU box; 120s means only a
# pathological regression (dedup silently off, per-row KB scans) trips it.
FULLSCALE_CEILING ?= 120s

# bench-compare: the base revision, workload and seed range (at least ten
# seeds: one alternating base/change pair each) of a same-machine A/B.
BASE ?= HEAD
WORKLOAD ?= person316k
SEEDS ?= 111-120

# Fuzz budget per target for fuzz-smoke, and where the coverage profile lands.
FUZZTIME ?= 30s
COVER_OUT ?= coverage.out

.PHONY: all build vet test race bench bench-smoke bench-save bench-test bench-compare \
	obs-smoke daemon-smoke chaos-smoke append-smoke fuzz-smoke cover cover-check check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# One iteration per benchmark: proves they still compile and run (CI gate).
# The full-scale benchmark additionally runs under a -timeout ceiling, so a
# scaling regression (anything super-linear in rows) fails loudly instead of
# merely slowing the job down.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...
	$(GO) test -run '^$$' -bench '^BenchmarkPersonFullScale$$' -benchtime=1x \
		-timeout $(FULLSCALE_CEILING) .

# The benchmark module (bench/, its own go.mod): vet plus its tests, which
# run every workload at tiny sizes, traced and untraced (~10s).
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Same-machine A/B of the benchmark of record, the working tree against
# $(BASE): alternating 25 s pairs over $(SEEDS), then `bench/run.sh compare`
# (see scripts/bench_compare.sh; about a minute per pair on person316k).
bench-compare:
	./scripts/bench_compare.sh $(BASE) $(WORKLOAD) $(SEEDS)

# Record the benchmark trajectory point: five runs of every benchmark, parsed
# from `go test -json` output into one record of medians and ns/op quartiles
# per benchmark in $(BENCH_OUT) (see DESIGN.md §10 for how to read it).
bench-save:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=$(BENCH_TIME) -count 5 -json ./... \
		| $(GO) run ./cmd/benchsave -out $(BENCH_OUT)

# Native-fuzz burst on every checked-in target: each must survive FUZZTIME
# (seed corpora under <pkg>/testdata/fuzz/) without a crasher.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzMatchLabel$$' -fuzztime $(FUZZTIME) ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzSimilarityLookup$$' -fuzztime $(FUZZTIME) ./internal/similarity
	$(GO) test -run '^$$' -fuzz '^FuzzLintExposition$$' -fuzztime $(FUZZTIME) ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzTableLoad$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime $(FUZZTIME) ./internal/jobs
	$(GO) test -run '^$$' -fuzz '^FuzzAppendEquivalence$$' -fuzztime $(FUZZTIME) ./internal/propcheck

# Per-package coverage summary plus the repo-wide total.
cover:
	$(GO) test -covermode=atomic -coverprofile=$(COVER_OUT) ./...
	$(GO) tool cover -func=$(COVER_OUT) | tail -n 1

# Fail when total coverage drops below scripts/cover_floor.txt.
cover-check: cover
	./scripts/cover_check.sh $(COVER_OUT) scripts/cover_floor.txt

# End-to-end observability check: run katara with -listen up, then verify
# /healthz, /metrics (through the strict promlint parser), /progress and
# pprof against the live server.
obs-smoke:
	./scripts/obs_smoke.sh

# End-to-end job-server check: boot katarad, run a kload burst (every job
# must complete with byte-identical reports and lint-clean, monotone
# /metrics scrapes), then verify SIGTERM tears it down cleanly.
daemon-smoke:
	./scripts/daemon_smoke.sh

# Crash-recovery check: kchaos SIGKILLs and restarts katarad mid-burst on a
# shared journal — no accepted job may be lost, every report must match a
# crash-free oracle byte-for-byte, and the journal must compact.
chaos-smoke:
	./scripts/chaos_smoke.sh

# Incremental append check: drive POST /jobs/{id}/append end to end — 202 on
# a done parent, the 409/404/400 admission contract, promlint-clean metrics
# with the appended counter, and a byte-identical result after a restart
# replays the append record.
append-smoke:
	./scripts/append_smoke.sh

check: build vet test race bench-test
