GO ?= go

.PHONY: all build test race check stress fmt vet bench figures obs-smoke crash-smoke rebalance-smoke ship-smoke tail-smoke gc-smoke lag-smoke clean

all: build

build:
	$(GO) build ./...

# The -timeout values are 2.5-4x the slowest package's measured time
# (internal/bench: ~5s plain, ~75s under -race on a 2-core host), so a
# hung test fails in seconds instead of after go test's 10-minute default.
test:
	$(GO) test -timeout 20s ./...

race:
	$(GO) test -race -timeout 200s ./...

# check is the tier-1 gate: formatting, vet, build, and the full test
# suite under the race detector. CI and pre-merge runs use this target.
check:
	sh scripts/check.sh

# stress re-runs the failure-prone suites — replication retry/eviction
# and the client ring/freeList property tests — repeatedly under the
# race detector, to shake out interleavings a single run can miss.
stress:
	$(GO) test -race -count=5 ./internal/replica ./internal/client

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

bench:
	$(GO) run ./cmd/tebis-bench -quick

# figures replays YCSB Load A / Run A / Run C through a replicated
# Send-Index cluster with the metrics sampler on and writes
# BENCH_figures.json + BENCH_fig{6,7,8}_*.csv time series (DESIGN.md §8).
figures:
	$(GO) run ./cmd/tebis-bench -experiment figures

# obs-smoke boots tebis-server with -metrics and -replica, drives load,
# and asserts /metrics, /debug/trace, and /debug/vars all serve the
# observability surface end to end.
obs-smoke:
	$(GO) run ./scripts/obssmoke

# crash-smoke runs the crash-consistency suites under the race
# detector: randomized torn-write recovery (vlog + engine), corrupt-node
# fuzzing of the index rewriter, the replica scrub-and-repair protocol,
# the offline fsck, and the cluster corruption acceptance test.
crash-smoke:
	$(GO) test -race \
		-run 'TestRecover|TestCrash|TestVlog|TestScrub|TestRepair|TestFetchSegment|TestTorn|TestCorrupt|TestRun|TestClusterScrub|TestVerify|TestFault' \
		./internal/vlog ./internal/lsm ./internal/storage ./internal/btree \
		./internal/replica ./internal/fsck ./internal/cluster

# ship-smoke runs the ship-codec suites under the race detector: codec
# and delta round trips, wire-frame compatibility with pre-codec
# payloads, the replica-level delta ship/fallback protocol, and the
# cluster acceptance test where a replicated Send-Index cluster runs
# with compression + delta on (the default) and a full scrub proves
# byte convergence.
ship-smoke:
	$(GO) test -race \
		-run 'TestShip|TestCrashLeavesNoGoroutines' \
		./internal/shipcodec ./internal/wire ./internal/replica ./internal/cluster

# tail-smoke runs the two-tenant flash-burst tail experiment at quick
# scale under tebis-bench -gate: zero lost acks, observability overhead
# <= 5% of offered load, adaptive-admission burst p99 <= 3x the
# pre-burst baseline, resolvable stage exemplars, and a
# BENCH_fig11_tail.csv covering the scenarios and both tenants. The
# report directory is kept when a gate fails.
tail-smoke:
	dir=$$(mktemp -d) && $(GO) run ./cmd/tebis-bench -quick -gate -out "$$dir" -experiment tail && rm -rf "$$dir"

# lag-smoke runs the replication-plane health experiment at quick scale
# under tebis-bench -gate: with an injected 50ms-delayed backup the
# lag/staleness gauges rise then drain back to ~0, with zero lost acks,
# zero wrong reads, zero evictions, and the lag tracker costing <= 5%
# of offered-load throughput. The report directory is kept when a gate
# fails.
lag-smoke:
	dir=$$(mktemp -d) && $(GO) run ./cmd/tebis-bench -quick -gate -out "$$dir" -experiment lag && rm -rf "$$dir"

# gc-smoke runs the online value-log GC suites under the race detector:
# victim selection and the space ledger, crash/torn-seal injection at
# every GC phase, concurrent-writer relocation (TestGCOnce also covers
# live-record moves and the empty log), the engine's release
# notification, recycled-segment read guards, prefix-release/Replay
# boundary properties, replica release propagation, and the
# Promote-after-GC ErrTrimmed fallback.
gc-smoke:
	$(GO) test -race \
		-run 'TestGCOnce|TestGCNotifiesListener|TestVlogSpace|TestTrimReplay|TestGetFreedOffset|TestReleaseTail|TestSyncPromoteAfterGC|TestSpace' \
		./internal/lsm ./internal/vlog ./internal/replica ./internal/fsck

# rebalance-smoke runs the dynamic-region suites under the race
# detector: online split/merge round trips, index-shipped live
# migration, master failover mid-reconfiguration, and the skewed-load
# acceptance test where a hot region is split and its child migrated to
# an idle server under sustained writes with zero lost acks.
rebalance-smoke:
	$(GO) test -race \
		-run 'TestSplit|TestMerge|TestMigrate|TestRebalance|TestMasterFailoverMid|TestLookup|TestRegionMap' \
		./internal/region ./internal/master ./internal/server ./internal/cluster

clean:
	$(GO) clean ./...
