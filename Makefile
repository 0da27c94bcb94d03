# Tier-1 gate (see ROADMAP.md): build, vet, lint, tests — `make race` adds the
# race detector, which the concurrent scheduler's stress tests rely on.

GO ?= go
# PR numbers the bench-json snapshot: make bench-json PR=13 writes BENCH_PR13.json.
# The default is the number of the last `- PR N` entry in CHANGES.md.
PR ?= $(shell sed -n 's/^- PR \([0-9][0-9]*\).*/\1/p' CHANGES.md | tail -n 1)

.PHONY: all build vet lint test race bench bench-json bench-name benchdiff serve serve-smoke trace-smoke chaos chaos-slo fleet-smoke

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# hybridlint: the in-tree analyzer suite (wallclock, lockcheck, maporder,
# vtunits) enforcing virtual-time and determinism discipline. See DESIGN.md §8.
lint:
	$(GO) run ./cmd/hybridlint -budget 15s ./...

test:
	$(GO) test ./...

# The harness package's determinism suites (parallel sweep, chaos, fleet)
# exceed go test's default 10-minute package timeout under the race detector.
race:
	$(GO) test -race -timeout 30m ./...

# Virtual-time benchmarks (one pass each; wall ns/op only measures the
# simulator). HYBRIDNDP_SCALE overrides the dataset scale.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x .

# Wall-clock perf trajectory: snapshot ns/op, B/op, allocs/op of the hot-path
# microbenchmarks, the full JOB sweep, the fleet scale-out sweep and the
# open-loop serving loop into BENCH_PR$(PR).json (diffable across PRs; non-gating
# CI artifact). The exec microbenchmarks run 5 iterations for stable
# allocs/op; the sweeps run once — they are the wall-clock headline.
bench-json:
	( $(GO) test -run '^$$' -bench 'ScanFilter|HashJoin|JoinStep|GroupAggregate' -benchmem -benchtime=5x ./internal/exec/ ; \
	  $(GO) test -run '^$$' -bench 'Fig12JOBSweep|FleetSweep|ServeOpenLoop' -benchmem -benchtime=1x -timeout 30m . ) | $(GO) run ./cmd/benchjson -o BENCH_PR$(PR).json

# The snapshot's base name (CI names the uploaded artifact after it).
bench-name:
	@echo BENCH_PR$(PR)

# Non-gating perf-trajectory diff: ns/op (plus B/op, allocs/op) deltas of the
# two newest BENCH_PR*.json snapshots.
benchdiff:
	$(GO) run ./cmd/benchdiff

# The serving sweep: policy × concurrency throughput table.
serve:
	$(GO) run ./cmd/hybridserve -sweep

# Serving front-door gate: the open-loop SLO sweep must run two tenants
# end-to-end (SQL sessions → plan cache → quotas → WFQ → lanes) with zero
# errors and a non-empty table; hybridserve exits non-zero otherwise.
serve-smoke:
	$(GO) run ./cmd/hybridserve -scale 0.01 -tenants 2 -arrival poisson:100 -slo 10ms -horizon 300ms >/dev/null

# Observability smoke: trace one hybrid JOB query (single buffer slot so the
# device's back-pressure stall is visible) and validate the Chrome trace.
trace-smoke:
	$(GO) run ./cmd/jobbench -scale 0.05 -slots 1 -trace "8d@H1:trace.json" >/dev/null
	$(GO) run ./cmd/tracecheck -slots trace.json
	rm -f trace.json

# Fleet gate: the 4-device scatter-gather sweep must answer every JOB query
# byte-identically (fingerprint) to the single-device baseline; jobbench exits
# non-zero on any mismatch or error.
fleet-smoke:
	$(GO) run ./cmd/jobbench -scale 0.01 -devices 1,4 -workers 4 >/dev/null

# Chaos gate: every JOB query must survive a 100%-crash device (retry, then
# host fallback) with results identical to host-native, and a traced chaos
# query must show the retry/fallback spans nested under its query root.
chaos:
	$(GO) run ./cmd/jobbench -scale 0.01 -faults "dev.crash=1" >/dev/null
	$(GO) run ./cmd/jobbench -scale 0.01 -faults "dev.crash=1" -trace "8d@H1:chaos-trace.json" >/dev/null
	$(GO) run ./cmd/tracecheck -chaos chaos-trace.json
	rm -f chaos-trace.json

# Chaos-SLO gate: cost tables measured through a 4-device fleet with one
# stalled member (unhedged and hedged), then the identical open-loop arrival
# stream through five policy×hedge combos. hybridserve exits non-zero unless
# adaptive placement + hedged shard execution strictly beats both force-host
# and unhedged adaptive on worst-tenant p99 and SLO-miss rate (or if any
# fleet result mismatches the host-native fingerprint).
chaos-slo:
	$(GO) run ./cmd/hybridserve -scale 0.01 -faults "dev1:dev.stall=2ms,seed=1" -arrival poisson >/dev/null
