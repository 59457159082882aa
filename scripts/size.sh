#!/bin/sh
# size.sh — the repository's size figure, defined once: lines of
# non-test Go outside the benchmark (cmd/lfsperf) and outside testdata
# (lfslint's corpora are its inputs, not code), comments and blanks
# included. ROADMAP's simplification targets, ci.sh's ceiling and every
# issue that quotes "non-test Go" mean this number.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './cmd/lfsperf/*' -not -path '*/testdata/*' | xargs cat | wc -l
