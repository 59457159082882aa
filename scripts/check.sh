#!/bin/sh
# check.sh — full verification: build, vet, tests, benches (one
# iteration each), a quick end-to-end tool exercise on a temp image,
# and every experiment against its committed report.
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
go build ./...
echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt drift in:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "== vet =="
go vet ./...
echo "== size =="
# Printed, not gated: ci.sh holds the figure to its ceiling.
echo "$(scripts/size.sh) lines of non-test Go"
echo "== lint =="
go run ./cmd/lfslint -timings -budget 20s ./...
echo "== lint test suite =="
go test -v ./internal/lint/
echo "== tests =="
go test ./...
echo "== race (full suite) =="
# -short: see ci.sh — the full-scale experiment table runs above and
# below without the detector.
go test -race -short ./...
echo "== benchmarks (1 iteration, every package) =="
go test -run '^$' -bench=. -benchtime=1x -benchmem ./...
echo "== tools =="
img="$(mktemp -d)/vol.img"
go run ./cmd/mklfs -image "$img" -size 32M
go run ./cmd/lfsck -image "$img"
# A format that fails (1 MB holds no four 1 MB segments) leaves the
# image it was pointed at as it was.
if go run ./cmd/mklfs -image "$img" -size 1M; then
	echo "check: mklfs -size 1M formatted" >&2
	exit 1
fi
go run ./cmd/lfsck -image "$img"
go run ./cmd/lfsdump -image "$img" > /dev/null
go run ./cmd/lfsdump -image "$img" -segments > /dev/null
go run ./cmd/lfsdump -image "$img" -imap > /dev/null
echo "== experiments =="
# Every experiment at the paper's scale, the metrics plane sampling each
# LFS they build: the reports must equal the committed ones (sampling
# may move no simulated number) and the combined series must replay
# through lfstop. ci.sh runs the same command and also gates the
# summaries.
out="$(mktemp -d)"
go run ./cmd/lfsbench -experiment all -metrics "$out/metrics.jsonl" > "$out/bench_results.txt"
diff -u bench_results.txt "$out/bench_results.txt"
go run ./cmd/lfstop "$out/metrics.jsonl" > /dev/null
echo "all checks passed"
