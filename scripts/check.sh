#!/bin/sh
# check.sh — full verification: build, vet, tests, benches (one
# iteration each), and a quick end-to-end tool exercise on a temp
# image. Mirrors what CI would run.
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
echo "== lint =="
go run ./cmd/lfslint -timings -budget 20s ./...
echo "== lint test suite =="
go test -v ./internal/lint/
echo "== tests =="
go test ./...
echo "== race (full suite) =="
go test -race ./...
echo "== benchmarks (1 iteration) =="
go test -bench=. -benchtime=1x -benchmem .
echo "== tools =="
img="$(mktemp -d)/vol.img"
go run ./cmd/mklfs -image "$img" -size 32M
go run ./cmd/lfsck -image "$img" -size 32M
go run ./cmd/lfsdump -image "$img" -size 32M > /dev/null
echo "== quick experiments =="
# Every experiment at -quick scale, the metrics plane sampling each
# LFS they build; the combined series must replay through lfstop.
mjsonl="$(mktemp -d)/metrics.jsonl"
go run ./cmd/lfsbench -experiment all -quick -metrics "$mjsonl" > /dev/null
go run ./cmd/lfstop "$mjsonl" > /dev/null
echo "all checks passed"
