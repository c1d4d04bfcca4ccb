GO ?= go

# The committed benchmark trajectory: BENCH_<n>.json snapshots, one
# per change to the RPC hot path. `make bench` regenerates the current
# snapshot and compares it (warn-only) against the newest previous
# one; `make bench-check` fails on a >15% regression of ns/op,
# allocs/op, or rpcs/op.
# The baseline is discovered numerically (`bench-snapshot latest`):
# make's $(sort) is lexicographic and would rank BENCH_9 above
# BENCH_10 once the trajectory reaches two digits.
BENCH_NEW  ?= BENCH_8.json
BENCH_BASE ?= $(shell $(GO) run ./cmd/bench-snapshot latest -exclude $(BENCH_NEW))

# The committed golden attribution profile: PROFILE_<n>.json, captured
# from the batched Table 2 run below. `make profile` recaptures
# profile.out.json and compares it warn-only against the newest
# golden; `make profile-check` fails when the critical-path length or
# any attribution bucket drifts >15% of the golden critical path.
# -timescale makes simulated network delay manifest as wall time, so
# the network bucket carries signal. Committing a new golden keeps
# only what the gate reads (totals, hosts, links):
# `go run ./cmd/profile-check compact profile.out.json PROFILE_<n+1>.json`.
PROFILE_GOLD ?= $(shell $(GO) run ./cmd/profile-check latest)
PROFILE_ARGS ?= -exp table2 -batch -transient 0.02 -timescale 0.05

.PHONY: all test race bench bench-check profile profile-check

all: test

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the RPC-path trajectory benchmarks — the Table 2
# end-to-end runs (sequential, parallel, batched) plus the Schooner
# call microbenchmarks — and snapshots their metrics. The Table 2
# benches actually sleep a fraction of their simulated network delays,
# so they run few iterations; the microbenchmarks run enough for
# stable ns/op.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkTable2_' -benchmem -benchtime 2x -count 1 . | tee bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkRPC_' -benchmem -benchtime 2000x -count 1 . | tee -a bench.out
	$(GO) run ./cmd/bench-snapshot snap -in bench.out -out $(BENCH_NEW)
	@if [ -n "$(BENCH_BASE)" ]; then \
		$(GO) run ./cmd/bench-snapshot compare -warn $(BENCH_BASE) $(BENCH_NEW); \
	else \
		echo "no previous BENCH_*.json; $(BENCH_NEW) is the first trajectory point"; \
	fi

bench-check:
	@if [ -n "$(BENCH_BASE)" ]; then \
		$(GO) run ./cmd/bench-snapshot compare $(BENCH_BASE) $(BENCH_NEW); \
	else \
		echo "no previous BENCH_*.json; nothing to check"; \
	fi

# profile captures the batched Table 2 attribution profile and
# compares it (warn-only) against the committed golden.
profile:
	$(GO) run ./cmd/npss-exp $(PROFILE_ARGS) -profile profile.out.json
	@if [ -n "$(PROFILE_GOLD)" ]; then \
		$(GO) run ./cmd/profile-check compare -warn $(PROFILE_GOLD) profile.out.json; \
	else \
		echo "no PROFILE_*.json golden; profile.out.json is the first"; \
	fi

profile-check:
	$(GO) run ./cmd/npss-exp $(PROFILE_ARGS) -profile profile.out.json
	@if [ -n "$(PROFILE_GOLD)" ]; then \
		$(GO) run ./cmd/profile-check compare $(PROFILE_GOLD) profile.out.json; \
	else \
		echo "no PROFILE_*.json golden; nothing to check"; \
	fi
