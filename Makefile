GO ?= go

.PHONY: build test lint verify bench bench-scale quick check check-topo soak soak-sessions soak-cluster

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static checks: go vet plus a gofmt cleanliness gate (gofmt -l prints
# offending files; any output fails the target).
lint:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

# Tier-1 verification: full build + static checks + tests, plus the race
# detector over the packages that run worker pools or schedule failure
# events (see ROADMAP.md), plus the differential-oracle suite, plus a
# 10-second bgqload smoke against an in-process daemon (zero 5xx,
# coalescing observed, zero SLO breaches), plus the short-mode session
# chaos soak (real daemon, mid-run SIGTERM/restart, byte-verified
# session reports, SLO-gated, merged Perfetto trace archived), plus the
# short-mode cluster chaos soak (three gossiping replicas, mid-run
# kill -9 and rejoin, zero stale plans).
#
# The telemetry gate also proves the disabled trace plane is free: the
# paired wall-span benchmark must report 0 B/op with tracing off, so
# the hot path never pays for observability nobody asked for.
verify: build lint check check-topo
	$(GO) test ./...
	$(GO) test -race ./internal/experiments ./internal/netsim ./internal/faultinject ./internal/serve ./internal/cluster
	$(GO) test -run '^$$' -bench 'BenchmarkWallSpan' -benchmem ./internal/obs | \
		awk '/^BenchmarkWallSpanDisabled/ { print; if ($$5 + 0 != 0 || $$7 + 0 != 0) { print "FAIL: disabled trace plane allocates"; exit 1 } found = 1 } END { if (!found) { print "FAIL: BenchmarkWallSpanDisabled did not run"; exit 1 } }'
	$(GO) run ./cmd/bgqload -selftest -duration 10s -rps 300 -agg-every 16 -seed 7 -require-coalesce -require-slo
	$(GO) run ./cmd/bgqload -selftest -sessions 8 -drop-every 3 -min-resumes 1 -require-slo
	SOAK_SHORT=1 ./scripts/soak_sessions.sh
	SOAK_SHORT=1 ./scripts/soak_cluster.sh

# Correctness oracle (DESIGN.md §11): the invariant + differential test
# suite (200 generated scenarios through both engines, the archived
# divergence corpus, and the mutation tests that prove each invariant
# still fires), invariant auditors over every experiment runner, a
# short randomized-fuzz smoke over the differential oracle, and a fuzz
# smoke over the fault-epoch vector parser clients feed server-sent
# vectors through.
check:
	$(GO) test ./internal/check
	$(GO) run ./cmd/bgqbench -check -quick -run all
	$(GO) test -fuzz='FuzzDifferential$$' -fuzztime=30s -run '^$$' ./internal/check
	$(GO) test -fuzz=FuzzParseVector -fuzztime=10s -run '^$$' ./internal/cluster

# Topology-plane oracle: the 200-seed dragonfly/fat-tree differential
# suite plus invariant audits and the topology round-trip/identity
# pins, an audited bgqbench cross-topology run, and a short fuzz smoke
# over the topology differential.
check-topo:
	$(GO) test -run 'Topo' -count=1 ./internal/check ./internal/netsim ./internal/packetsim ./internal/scenario ./internal/serve
	$(GO) run ./cmd/bgqbench -check -quick -run topo
	$(GO) test -fuzz=FuzzDifferentialTopo -fuzztime=15s -run '^$$' ./internal/check

# Fast smoke run of every figure.
quick:
	$(GO) run ./cmd/bgqbench -quick -run all

# Figure benchmarks with allocation counts, then a bgqbench run that
# writes BENCH_<date>.json and prints a one-line comparison against the
# most recent previous BENCH_*.json (the performance trajectory).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .
	./scripts/bench.sh

# Full-machine tentpole benchmark (DESIGN.md §13): 48K nodes / 131,072
# ranks through the incremental waterfill, archived as
# BENCH_SCALE_<date>.json. Fails on a >2x wall-clock regression against
# the most recent committed BENCH_SCALE_*.json. Not part of `make
# verify` (it is a multi-second perf gate, not a correctness gate); run
# it before merging engine-touching changes.
bench-scale:
	./scripts/bench.sh scale

# Load/soak gate: spawn a real bgqd on a Unix socket, drive it with
# bgqload for 30s at a fixed request rate, fail on any 5xx, on a shed
# rate above 50%, or on a p99 regression against the checked-in baseline
# (scripts/soak_baseline.json). Archives the report as LOAD_<date>.json.
soak:
	./scripts/soak.sh

# Session chaos soak (DESIGN.md §14): 1000 concurrent resilient
# transfer sessions against a real bgqd with fault events, forced
# disconnects, and a mid-run SIGTERM/restart. Gates: zero lost, zero
# duplicated, zero mismatched sessions (every report byte-identical to
# a direct MoveResilient replay), with resumes and pushed faults
# actually exercised. Archives SESSIONS_<date>.json.
soak-sessions:
	./scripts/soak_sessions.sh

# Cluster chaos soak (DESIGN.md §17): three clustered bgqd replicas on
# Unix sockets driven through bgqload's consistent-hash ring mode with
# fault events interleaved into the load; one replica is kill -9'd at a
# third of the run and restarted at two thirds. Gates: zero stale plans
# (every response's fault-epoch vector dominates the client's demand),
# zero 5xx/transport errors, p99 within 5x the single-daemon baseline,
# no hot shard. Archives CLUSTER_<date>.json.
soak-cluster:
	./scripts/soak_cluster.sh
