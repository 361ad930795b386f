#!/bin/sh
# check.sh — the repository's tier-1 gate, run by `make check` and CI.
# Fails on unformatted files, vet findings, build errors, or any test
# failure under the race detector.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

# -timeout is about 2.5x the slowest package's -race time (internal/bench,
# ~75s on a 2-core host): a hang fails fast instead of after 10 minutes.
echo "== go test -race"
go test -race -timeout 200s ./...

# The full -race run above already includes the failure-handling suite;
# this focused pass re-runs it by name so a gate log shows explicitly
# that fault injection, eviction/repair, and the failover-path
# regressions were exercised.
# obs-smoke boots a real tebis-server with -metrics and -replica and
# asserts the whole observability surface (Prometheus exposition, Chrome
# trace export, expvar) works end to end against live compactions.
echo "== obs smoke"
go run ./scripts/obssmoke

# crash-smoke re-runs the crash-consistency suites by name under -race
# so a gate log shows explicitly that torn-write recovery, corrupt-node
# hardening, scrub-and-repair, and fsck were exercised.
echo "== crash smoke"
make crash-smoke

# ship-smoke re-runs the ship-codec suites by name under -race so a
# gate log shows explicitly that codec/delta round trips, pre-codec
# wire compatibility, the delta fallback protocol, and the compressed
# cluster's scrub-verified byte convergence were exercised.
echo "== ship smoke"
make ship-smoke

# gc-smoke re-runs the online value-log GC suites by name under -race
# so a gate log shows explicitly that crash injection at every GC phase,
# recycled-segment read guards, replica release propagation, and the
# Promote-after-GC fallback were exercised.
echo "== gc smoke"
make gc-smoke

# The bench acceptance gates, evaluated by tebis-bench -gate at quick
# scale: observability overhead <= 5% of offered load; the tail
# experiment's zero lost acks, <= 5% overhead, adaptive burst p99 <= 3x
# pre-burst and resolvable exemplars (DESIGN.md §11); GC space
# amplification <= 2x at <= 10% offered-load cost (§12); and the lag
# experiment's zero lost acks / wrong reads / evictions, staleness
# rising then draining, and <= 5% tracker cost (§13). On a failure the
# reports stay in the printed directory.
echo "== bench gates"
gatedir=$(mktemp -d)
go run ./cmd/tebis-bench -quick -gate -out "$gatedir" \
    -experiment observability,tail,gc,lag
rm -rf "$gatedir"

# rebalance-smoke re-runs the dynamic-region suites by name under -race
# so a gate log shows explicitly that online split/merge, index-shipped
# live migration, failover mid-reconfiguration, and the skewed-load
# split+migrate acceptance test were exercised.
echo "== rebalance smoke"
make rebalance-smoke

echo "== failover suite (focused re-run)"
go test -race -run 'TestBackupFailure|TestBackupCrash|TestRPCRetry|TestSyncPromote|TestPromoteSmallLogBuffer|TestBackupEvictionReplacementAndFailover|TestReplayFromTrimmedSegment|TestRingProperty|TestRingWrap|TestFreeListProperty|TestGCOnceReleasePropagation' \
    ./internal/replica ./internal/cluster ./internal/vlog ./internal/client

echo "OK"
