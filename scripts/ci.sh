#!/bin/sh
# ci.sh — the merge gate: build, vet, and the full test suite under
# the race detector (which includes the crash-point sweeps and the
# fuzz seed corpora). scripts/check.sh is the longer local suite with
# benches and tool smoke tests.
#
# Usage: ci.sh [-update]
#
# A run only compares: each smoke's fresh summary is diffed against the
# committed BENCH_*.json baseline and then thrown away, so a green run
# leaves the work tree exactly as it found it (the last step checks).
# Regenerating the baselines after an intended model change is the
# explicit `ci.sh -update`, which replaces each baseline with the fresh
# summary instead of diffing it; review and commit the result.
set -eu
cd "$(dirname "$0")/.."

update=0
case "${1:-}" in
"") ;;
-update) update=1 ;;
*)
	echo "usage: ci.sh [-update]" >&2
	exit 2
	;;
esac
tree_before="$(git status --porcelain)"

# gate NAME holds the fresh $tracedir/BENCH_NAME.json to the committed
# baseline, or with -update makes it the baseline.
gate() {
	if [ "$update" = 1 ]; then
		cp "$tracedir/BENCH_$1.json" "BENCH_$1.json"
	else
		scripts/benchdiff.sh "BENCH_$1.json" "$tracedir/BENCH_$1.json"
	fi
}

echo "== build =="
go build ./...
echo "== gofmt =="
# Formatting drift fails the gate before anything slower runs.
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt drift in:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "== vet =="
go vet ./...
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
echo "== lint =="
# lfslint enforces the simulation/log invariants (simulated clock
# only, named IOCauses, *vfs.PathError returns, guarded-field
# locking, no mixed atomics, no map-order output, single-threaded
# simulation, errors.Is sentinels, store capability/Close discipline,
# integral accounting) before the test suite spends minutes. The
# per-analyzer timings print with the run, the whole suite must fit
# the 20s budget, and the machine-readable report lands next to the
# other CI artifacts.
go run ./cmd/lfslint -timings -budget 20s -json "$tracedir/lint.json" ./...
echo "== test -race =="
go test -race ./...
echo "== tracing smoke =="
# Instrumented small-file + cleaning run: exports the JSONL trace,
# summarises it with lfstrace, and writes the headline numbers
# (write cost, ops/s, attribution share) to a fresh summary that is
# diffed against the committed BENCH_trace.json baseline (±10%) — a
# silent perf regression fails here.
go run ./cmd/lfsbench -experiment trace -quick \
	-trace "$tracedir/trace.jsonl" -benchjson "$tracedir/BENCH_trace.json"
go run ./cmd/lfstrace "$tracedir/trace.jsonl" > /dev/null
go run ./cmd/lfstrace -critpath "$tracedir/trace.jsonl" > /dev/null
go run ./cmd/lfstrace -json "$tracedir/trace.jsonl" > /dev/null
gate trace
echo "== concurrency smoke =="
# Multi-client throughput curve (LFS group commit vs ablation vs FFS)
# with the metrics plane sampling every instance; the time series is
# replayed through lfstop and the curve diffed against its baseline.
go run ./cmd/lfsbench -experiment concurrency -quick \
	-metrics "$tracedir/concurrency.metrics.jsonl" \
	-benchjson "$tracedir/BENCH_concurrency.json"
go run ./cmd/lfstop "$tracedir/concurrency.metrics.jsonl" > /dev/null
gate concurrency
echo "== critical-path smoke =="
# Latency-attribution smoke: the group-commit fsync sweep with every
# span's phase decomposition checked for exactness — lfsbench fails
# the run itself if any span's phases do not sum to its latency — and
# the per-phase means, percentiles, and tail blame diffed against the
# committed baseline, so time silently moving between phases (an
# attribution regression) cannot land.
go run ./cmd/lfsbench -experiment critpath -quick \
	-benchjson "$tracedir/BENCH_critpath.json"
gate critpath
echo "== cleaning-curve smoke =="
# Write-cost-vs-utilization curve (greedy vs cost-benefit vs
# cost-benefit+segregation) under the seeded Zipf overwrite load at
# the quick scale; the u=0.80 headline numbers are diffed against the
# committed baseline so a cleaning-policy or write-cost regression
# cannot land silently.
go run ./cmd/lfsbench -experiment cleaning-curve -quick \
	-benchjson "$tracedir/BENCH_cleaning.json"
gate cleaning
echo "== sharding smoke =="
# Multi-log scale-out smoke: the quick ops/s-vs-shard-count sweep
# plus the four-shard crash scenario (power cut on shard 0 mid-write,
# healthy shards keep committing, per-shard recovery, then fsck of
# all four images) and the same-seed byte-identical determinism
# rerun. lfsbench fails the run itself if any of those break; the
# curve and crash counters are additionally diffed against the
# committed baseline, and the per-shard metrics stream is replayed
# through lfstop's shard table.
go run ./cmd/lfsbench -experiment sharding -quick \
	-metrics "$tracedir/sharding.metrics.jsonl" \
	-benchjson "$tracedir/BENCH_sharding.json"
go run ./cmd/lfstop "$tracedir/sharding.metrics.jsonl" > /dev/null
gate sharding
echo "== store conformance =="
# The pluggable-store acceptance gate, run explicitly (it is also part
# of `go test ./...` above): every backend — mem, cow, file, mmap —
# must pass the exported conformance suite, including fault-injection
# identity and same-seed byte-identical images.
go test ./internal/disk -run 'TestStoreConformance|TestStoreDifferentialProperty' -count=1
echo "== crashsweep smoke =="
# Crash-point sweep benchmark: replaying the workload must execute at
# least 5x the operations per point that the snapshot strategy (restore
# a copy-on-write image per point) does — lfsbench itself enforces the
# floor, on counted work, not wall-clock time — and the sweep's
# deterministic counters are diffed against the committed baseline.
go run ./cmd/lfsbench -experiment crashsweep -quick \
	-benchjson "$tracedir/BENCH_crashsweep.json"
gate crashsweep
echo "== metrics smoke =="
# Metrics-plane smoke: small-file + cleaning run under the sampler,
# final sample pinned to the end-of-run aggregates; the series feeds
# lfstop and the headline numbers are diffed against the baseline.
go run ./cmd/lfsbench -experiment metrics -quick \
	-metrics "$tracedir/metrics.jsonl" \
	-benchjson "$tracedir/BENCH_metrics.json"
go run ./cmd/lfstop "$tracedir/metrics.jsonl" > /dev/null
gate metrics
echo "== lfsperf smoke =="
# Three of lfsperf's four workloads on both clocks (clients, the
# fourth, has no allocation budget of its own yet): lfsperf exits
# non-zero unless every operation succeeded and the simulated results
# repeated for the seed (its "correct"), and the host
# allocation figures per operation — deterministic, unlike host time —
# must stay within the budgets earlier changes bought: small-file
# allocations (1340 before the in-place directory codec and the
# intrusive cache chains, about 7 after), the bytes the large-file and
# cleaning paths allocate (16.8 KB and 55.8 KB before block buffers
# were recycled, 4070 and 932 after; what is left is the memory store's
# own chunks and cache block headers) and the cleaning path's
# allocations (about 6: block headers and summary refs, no map or
# scratch slice of the cleaner's own).
# perf_run WORKLOAD runs one workload; perf_budget METRIC UNIT LIMIT
# holds a figure of the last run to its budget.
perf_run() {
	workload="$1"
	perf="$(go run ./cmd/lfsperf -workload "$1" -seconds 3 -out "$tracedir/lfsperf" | tail -n 1)"
	echo "$perf" | grep -q '"correct":true' || { echo "lfsperf: $1 result not correct: $perf" >&2; exit 1; }
}
perf_budget() {
	echo "$perf" | sed -n 's/.*"'"$1"'":{"unit":"'"$2"'","value":\([0-9.e+-]*\)}.*/\1/p' |
		awk -v what="$workload $1" -v limit="$3" 'END { if (NR != 1 || $1 + 0 > limit) { print "lfsperf: " what " = " $1 ", want <= " limit > "/dev/stderr"; exit 1 } }'
}
perf_run smallfile
perf_budget host_allocs_per_op count 25
perf_run largefile
perf_budget host_bytes_per_op bytes 5000
perf_run cleaning
perf_budget host_bytes_per_op bytes 1500
perf_budget host_allocs_per_op count 8
if [ "$update" = 1 ]; then
	echo "baselines regenerated; review and commit the BENCH_*.json changes"
	exit 0
fi
echo "== work tree =="
# Nothing above may create, rewrite or leave behind a tracked or
# unignored file: on a clean checkout `git status --porcelain` must
# still be empty.
if [ "$(git status --porcelain)" != "$tree_before" ]; then
	echo "ci run changed the work tree:" >&2
	git status --porcelain >&2
	exit 1
fi
echo "ci passed"
