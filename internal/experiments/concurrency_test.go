package experiments

import (
	"bytes"
	"strings"
	"testing"

	"lfs/internal/sim"
)

// quickConcurrencyOpts shrinks the sweep for CI: the {1, 8} endpoints
// are enough to assert the scaling shape.
func quickConcurrencyOpts() ClientOpts {
	opts := DefaultClientOpts()
	opts.Capacity = 64 << 20
	opts.ClientCounts = []int{1, 8}
	opts.OpsPerClient = 48
	return opts
}

// TestConcurrencyShape asserts the headline claims of the experiment:
// group-commit LFS throughput scales with client count, the
// no-group-commit ablation and the FFS baseline stay flat, and the
// scaling comes from amortised per-op write cost.
func TestConcurrencyShape(t *testing.T) {
	rows, err := Concurrency(quickConcurrencyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	one, eight := rows[0], rows[1]
	if one.Clients != 1 || eight.Clients != 8 {
		t.Fatalf("row client counts %d, %d", one.Clients, eight.Clients)
	}

	// LFS with group commit must scale: at least 2x throughput at 8
	// clients (measured ~3x).
	if s := speedup(eight.LFSOpsPerSec, one.LFSOpsPerSec); s < 2 {
		t.Errorf("LFS speedup at 8 clients %.2f, want >= 2", s)
	}
	// FFS must flatten near 1: synchronous metadata writes cost the
	// same however many clients queue behind them.
	if s := speedup(eight.FFSOpsPerSec, one.FFSOpsPerSec); s < 0.5 || s > 1.3 {
		t.Errorf("FFS speedup at 8 clients %.2f, want ~1", s)
	}
	// The ablation isolates the mechanism: without group commit,
	// 8-client LFS must not meaningfully beat 1-client LFS, and the
	// group-commit run must clearly beat the ablation.
	if s := speedup(eight.LFSNoGCOpsPerSec, one.LFSNoGCOpsPerSec); s > 1.3 {
		t.Errorf("no-group-commit LFS speedup %.2f, want ~1", s)
	}
	if eight.LFSOpsPerSec < 1.5*eight.LFSNoGCOpsPerSec {
		t.Errorf("group commit %.1f ops/s vs ablation %.1f; want >= 1.5x",
			eight.LFSOpsPerSec, eight.LFSNoGCOpsPerSec)
	}
	// The mechanism must be visible in the counters: most syncs
	// piggyback, and per-op write cost drops.
	if eight.Piggybacked == 0 || eight.GroupCommits == 0 {
		t.Errorf("no batching at 8 clients: %d commits, %d piggybacks",
			eight.GroupCommits, eight.Piggybacked)
	}
	if eight.LFSWritesPerOp >= one.LFSWritesPerOp/2 {
		t.Errorf("per-op writes %.2f at 8 clients vs %.2f at 1; want halved",
			eight.LFSWritesPerOp, one.LFSWritesPerOp)
	}
}

// TestConcurrencyFormatAndCSV pins the output layer.
func TestConcurrencyFormatAndCSV(t *testing.T) {
	rows := []ConcurrencyRow{
		{Clients: 1, LFSOpsPerSec: 40, LFSNoGCOpsPerSec: 41, FFSOpsPerSec: 25,
			GroupCommits: 64, Piggybacked: 0, LFSWritesPerOp: 1.1, FFSWritesPerOp: 11.3,
			LFSP50: 25 * sim.Millisecond, LFSP95: 40 * sim.Millisecond, LFSP99: 45 * sim.Millisecond},
		{Clients: 8, LFSOpsPerSec: 120, LFSNoGCOpsPerSec: 42, FFSOpsPerSec: 22,
			GroupCommits: 64, Piggybacked: 448, LFSWritesPerOp: 0.14, FFSWritesPerOp: 3.4,
			LFSP50: 60 * sim.Millisecond, LFSP95: 81 * sim.Millisecond, LFSP99: 95 * sim.Millisecond},
	}
	out := FormatConcurrency(rows)
	if lines := strings.Count(out, "\n"); lines != 4 {
		t.Errorf("formatted output has %d lines, want 4:\n%s", lines, out)
	}
	for _, want := range []string{"clients", "120.0", "448", "3.00", "p95ms", "81.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}

	var buf bytes.Buffer
	if err := CSVConcurrency(&buf, rows); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	if lines := strings.Count(csv, "\n"); lines != 3 {
		t.Errorf("CSV has %d lines, want 3:\n%s", lines, csv)
	}
	if !strings.Contains(csv, "clients,lfs_ops_per_s") || !strings.Contains(csv, "8,120.000") {
		t.Errorf("CSV content wrong:\n%s", csv)
	}
}
