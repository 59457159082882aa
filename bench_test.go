package lfs_test

import (
	"testing"

	"lfs/internal/experiments"
)

// BenchmarkExperiment runs each row of the experiment table, so
//
//	go test -run '^$' -bench Experiment/fig3 -benchtime 1x .
//
// gives the wall-clock cost of regenerating one figure. That is all it
// measures: the paper's own metrics (files/s, KB/s, write cost) are
// simulated-time figures, printed by cmd/lfsbench and held byte for
// byte to bench_results.txt, and host cost per simulated operation is
// cmd/lfsperf's ledger.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.Table {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
