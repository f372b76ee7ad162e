# Pre-merge verification and perf tooling.  `make verify` is the documented
# gate: the tier-1 build+test, go vet + gofmt, the race detector over the
# concurrency-bearing packages (problem construction, the flow kernels and
# their workspace pool, and the platform server), and vet + tests of the
# perfbench module.
GO ?= go

.PHONY: verify build test vet race perfbench-test chaos crash bench benchjson bench-diff

verify: build test vet race perfbench-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tags chaos ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

race:
	$(GO) test -race ./internal/core/... ./internal/platform/... ./internal/bipartite/...

# perfbench is a module of its own (it replaces repro with ../), so the
# root ./... never compiles it; build and test it here so a platform API
# change cannot silently break the end-to-end benchmark.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Fault-injection suite: ≥120 serving rounds under injected journal
# faults, solver panics and concurrent churn, then recovery verification;
# plus the replication storms — the primary killed mid-stream (response
# cut at seeded offsets), taken away for whole poll windows, and its
# journal poisoned under it, with the follower required to converge to
# snapshot byte-identity every time — and the failover storms: the
# primary killed mid-traffic with the standby auto-promoting to a state
# byte-identical to the crash-free reference, the old primary revived
# and epoch-fenced (zero writes applied or journaled), and a follower
# stalled past segment retention recovering through snapshot resync.
# The overload storm (build tag `chaos`) adds a seeded open-loop
# LoadStorm at 4x the admission controller's write capacity: admitted
# requests must meet their deadline p99, shed requests must get 429 +
# jittered Retry-After with zero journal writes, the journal must replay
# byte-identical to the accepted-event log, healthz must recover
# overloaded->ok once the storm stops, and the failover standby must not
# promote (overload is not death).
# Deterministic under CHAOS_SEED (default 1); export a different value
# to rotate the fault pattern (CI runs seeds 1, 7 and 1337).
chaos:
	CHAOS_SEED=$${CHAOS_SEED:-1} $(GO) test -tags chaos -race -count=1 -v -run 'Chaos' ./internal/platform/...

# Crash-fidelity suite: a ≥100-round deterministic script re-run with a
# power cut injected at every checkpoint/segment crash point (torn
# snapshot, cut rename, torn append, mid-rotation cut, cut heal); after
# each crash the directory is recovered and the final state must be
# byte-identical to the crash-free reference.  Seeded like `make chaos`.
crash:
	CHAOS_SEED=$${CHAOS_SEED:-1} $(GO) test -race -count=1 -v -run 'TestCrash' ./internal/platform/...

# Construction + greedy hot-path micro-benchmarks (allocation counts
# included); compare against the committed BENCH_construction.json.
bench:
	$(GO) test -bench 'NewProblem|Greedy|Feasible' -benchmem -run '^$$'

# Regenerate the machine-readable benchmark-regression baselines:
# construction/solver line-up, the steady-state solve + platform round
# suites (workspace and arena reuse), and the exact matching engines
# (cold serial reference vs workspace-reused flow kernels).
benchjson:
	$(GO) run ./cmd/mbabench -benchjson BENCH_construction.json -suites construction
	$(GO) run ./cmd/mbabench -benchjson BENCH_solve.json -suites solve,round
	$(GO) run ./cmd/mbabench -benchjson BENCH_matching.json -suites matching
	$(GO) run ./cmd/mbabench -benchjson BENCH_incremental.json -suites incremental
	$(GO) run ./cmd/mbabench -benchjson BENCH_sharded.json -suites sharded-round
	$(GO) run ./cmd/mbabench -benchjson BENCH_ingest.json -suites ingest
	$(GO) run ./cmd/mbabench -benchjson BENCH_overload.json -suites overload

# Re-run the checked-in baselines' suites and fail on any entry that got
# >25% slower (or meaningfully more allocation-hungry).  Run on an idle
# machine: the gate compares wall-clock numbers.
bench-diff:
	$(GO) run ./cmd/mbabench -benchdiff BENCH_construction.json
	$(GO) run ./cmd/mbabench -benchdiff BENCH_solve.json
	$(GO) run ./cmd/mbabench -benchdiff BENCH_matching.json
	$(GO) run ./cmd/mbabench -benchdiff BENCH_incremental.json
	$(GO) run ./cmd/mbabench -benchdiff BENCH_sharded.json
	$(GO) run ./cmd/mbabench -benchdiff BENCH_ingest.json
	$(GO) run ./cmd/mbabench -benchdiff BENCH_overload.json
