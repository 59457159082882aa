#!/bin/sh
# ci.sh — the merge gate: build, vet, and the full test suite under
# the race detector (which includes the crash-point sweeps and the
# fuzz seed corpora: the four decoders' and FuzzMountImage's, which
# mounts a valid image with one byte flipped per seed). scripts/check.sh
# is the longer local suite with benches and tool smoke tests.
#
# Usage: ci.sh [-update]
#
# A run only compares: the experiments' fresh reports and summaries are
# diffed against the committed bench_results.txt and BENCH_*.json and
# then thrown away, so a green run leaves the work tree exactly as it
# found it (the last step checks). Regenerating them after an intended
# model change is the explicit `ci.sh -update`, which replaces each
# committed file with the fresh one instead of diffing it; review and
# commit the result.
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
echo "== size =="
# Non-test Go outside cmd/lfsperf (scripts/size.sh is the definition)
# may not pass the ceiling: the same device as the lfsperf allocation
# budgets below. Growth stays possible — by raising the number here, in
# the diff, where a reviewer sees it. Lower it to the new figure when a
# change shrinks the tree. CHANGES.md records each move and its cause.
size_ceiling=24318
size="$(scripts/size.sh)"
echo "$size lines of non-test Go (ceiling $size_ceiling)"
if [ "$size" -gt "$size_ceiling" ]; then
	echo "ci: non-test Go grew past the ceiling; shrink the change or raise size_ceiling in scripts/ci.sh" >&2
	exit 1
fi
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
echo "== test -race: the store hand-over =="
# MemStore's look-ahead is the one place a buffer changes goroutines
# (DESIGN.md §14), up to three spare chunks per store at a time. Ten
# rounds of its own tests and of the conformance battery, which uses it
# as the reference store, before the suite below runs everything once:
# the detector only sees the interleavings a run happens to produce.
go test -race -count=10 -run 'MemStore|StoreConformance' ./internal/disk
# experiments runs the experiments stage. -update runs it before the
# race suite, whose TestExperimentTable holds the experiments to the
# committed files it is about to regenerate; the plain gate runs it
# after.
experiments() {
	echo "== experiments =="
	# Every experiment of the paper's evaluation, once, at the paper's
	# scale (experiments.Table; about half a minute). Each experiment
	# enforces its own verdicts — phases that sum to latencies, a
	# byte-identical same-seed rerun, a clean fsck after the power cut, the
	# crash sweep's work floor, a clean Check() on the volume each cleaning
	# row measured (the trace and metrics smokes aside) — by failing the run. The model is
	# deterministic, so what it prints must equal the committed
	# bench_results.txt and every summary it writes its committed
	# BENCH_*.json, byte for byte: a silent change to a figure, a curve or
	# a write cost cannot land. The trace and the metrics series it exports
	# must replay through lfstrace and lfstop, both read from one file
	# holding the two streams (FORMAT.md: they may share a file).
	go run ./cmd/lfsbench -experiment all -benchdir "$tracedir" \
		-trace "$tracedir/trace.jsonl" -metrics "$tracedir/metrics.jsonl" \
		> "$tracedir/bench_results.txt"
	cat "$tracedir/trace.jsonl" "$tracedir/metrics.jsonl" > "$tracedir/mixed.jsonl"
	go run ./cmd/lfstrace "$tracedir/mixed.jsonl" > /dev/null
	go run ./cmd/lfstrace -critpath "$tracedir/mixed.jsonl" > /dev/null
	go run ./cmd/lfstrace -json "$tracedir/mixed.jsonl" > /dev/null
	go run ./cmd/lfstop "$tracedir/mixed.jsonl" > /dev/null
	if [ "$update" = 1 ]; then
		cp "$tracedir"/BENCH_*.json "$tracedir/bench_results.txt" .
	else
		diff -u bench_results.txt "$tracedir/bench_results.txt"
		for b in BENCH_*.json; do
			cmp "$b" "$tracedir/$b"
		done
		# And the other way round: a summary nobody committed a baseline
		# for would otherwise never be looked at.
		for b in "$tracedir"/BENCH_*.json; do
			[ -f "$(basename "$b")" ] || { echo "ci: $(basename "$b") has no committed baseline (ci.sh -update)" >&2; exit 1; }
		done
	fi
}
if [ "$update" = 1 ]; then
	experiments
fi
echo "== test -race =="
# -short skips one thing: the experiments package's run of the whole
# experiment table at full scale, which the plain `go test ./...` does
# and the experiments stage below repeats against the committed
# reports — under the detector it alone would take five minutes.
go test -race -short ./...
if [ "$update" = 0 ]; then
	experiments
fi
echo "== store conformance =="
# The pluggable-store acceptance gate, run explicitly (it is also part
# of `go test ./...` above): every backend — mem, cow, file, mmap —
# must pass the exported conformance suite, including fault-injection
# identity and same-seed byte-identical images.
go test ./internal/disk -run 'TestStoreConformance|TestStoreDifferentialProperty' -count=1
echo "== lfsperf smoke =="
# lfsperf's four workloads on both clocks: lfsperf exits non-zero
# unless every operation succeeded and the simulated results repeated
# for the seed (its "correct"). The host allocation figures per
# operation are deterministic, unlike host time, and each budget sits
# about 5 % above what the workload does today (at -seconds 3):
# smallfile 1.03 allocations; largefile 0.037 allocations and 4 080
# bytes; cleaning 71 bytes and 0.014 allocations; clients 0.0296
# allocations and 3 205–3 230 bytes (by how many spare chunks the
# look-ahead holds at the end), nearly all of them the four memory
# stores' 1 MB chunks. A budget that trips means a per-op allocation
# came back: fstest.RunSteadyStateAllocs in core, ffs and shard says
# where. Lower a budget when a change lowers its figure.
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
perf_budget host_allocs_per_op count 1.08
perf_run largefile
perf_budget host_allocs_per_op count 0.039
perf_budget host_bytes_per_op bytes 4300
perf_run cleaning
perf_budget host_bytes_per_op bytes 75
perf_budget host_allocs_per_op count 0.015
perf_run clients
perf_budget host_allocs_per_op count 0.031
perf_budget host_bytes_per_op bytes 3390
if [ "$update" = 1 ]; then
	echo "regenerated; review and commit the BENCH_*.json and bench_results.txt changes"
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
