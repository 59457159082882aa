package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/ffs"
	"lfs/internal/sim"
)

// ConcurrencyRow is one client count's measurements across the three
// systems: LFS with group commit, LFS without, and the FFS baseline.
type ConcurrencyRow struct {
	Clients int

	// Throughput in fsynced small-file operations per simulated
	// second.
	LFSOpsPerSec     float64
	LFSNoGCOpsPerSec float64
	FFSOpsPerSec     float64

	// GroupCommits and Piggybacked decompose the group-commit LFS
	// run's sync requests: flushes that carried the batch vs syncs
	// that found their data already committed.
	GroupCommits int64
	Piggybacked  int64

	// LFSWritesPerOp and FFSWritesPerOp are disk write requests per
	// operation — the per-op cost that group commit amortises.
	LFSWritesPerOp float64
	FFSWritesPerOp float64

	// LFSP50/P95/P99 are operation-latency percentiles of the
	// group-commit LFS run, bucket-interpolated from the per-client
	// latency histograms merged across clients.
	LFSP50 sim.Duration
	LFSP95 sim.Duration
	LFSP99 sim.Duration
}

// Concurrency sweeps client counts over LFS (group commit on and off)
// and FFS, one fresh file system per cell so runs never share state.
func Concurrency(opts ClientOpts) ([]ConcurrencyRow, error) {
	return sweep("concurrency", opts.ClientCounts, func(n int) (ConcurrencyRow, error) {
		load := clientLoad(n, opts.OpsPerClient)
		row := ConcurrencyRow{Clients: n}

		// LFS with group commit.
		lcfg := core.DefaultConfig()
		lcfg.GroupCommit = true
		sys, err := NewLFS(opts.Capacity, lcfg)
		if err != nil {
			return row, err
		}
		lfs := sys.System.(*core.FS)
		gc, err := runClients(lfs, load, sys.Disk)
		if err != nil {
			return row, fmt.Errorf("lfs: %w", err)
		}
		st := lfs.Stats()
		row.LFSOpsPerSec, row.LFSWritesPerOp = gc.OpsPerSecond(), gc.WritesPerOp
		row.LFSP50, row.LFSP95, row.LFSP99 = gc.P50, gc.P95, gc.P99
		row.GroupCommits, row.Piggybacked = st.GroupCommits, st.PiggybackedSyncs

		// LFS without group commit (the ablation: same log, every
		// fsync pays its own flush).
		if sys, err = NewLFS(opts.Capacity, core.DefaultConfig()); err != nil {
			return row, err
		}
		nogc, err := runClients(sys.System.(*core.FS), load)
		if err != nil {
			return row, fmt.Errorf("lfs-nogc: %w", err)
		}
		row.LFSNoGCOpsPerSec = nogc.OpsPerSecond()

		// FFS baseline.
		if sys, err = NewFFS(opts.Capacity, ffs.DefaultConfig()); err != nil {
			return row, err
		}
		base, err := runClients(sys.System.(*ffs.FS), load, sys.Disk)
		if err != nil {
			return row, fmt.Errorf("ffs: %w", err)
		}
		row.FFSOpsPerSec, row.FFSWritesPerOp = base.OpsPerSecond(), base.WritesPerOp
		return row, nil
	})
}

// runConcurrency is the table's concurrency row; the whole curve is the
// gated summary.
func runConcurrency() (Result, error) {
	rows, err := Concurrency(DefaultClientOpts())
	res, err := tabular(rows, err, FormatConcurrency, CSVConcurrency)
	if err != nil {
		return res, err
	}
	curve := make([]map[string]any, len(rows))
	for i, r := range rows {
		curve[i] = map[string]any{
			"clients":            r.Clients,
			"lfs_ops_per_s":      r.LFSOpsPerSec,
			"lfs_nogc_ops_per_s": r.LFSNoGCOpsPerSec,
			"ffs_ops_per_s":      r.FFSOpsPerSec,
			"group_commits":      r.GroupCommits,
			"piggybacked":        r.Piggybacked,
			"lfs_writes_per_op":  r.LFSWritesPerOp,
			"ffs_writes_per_op":  r.FFSWritesPerOp,
			"lfs_p50_ms":         ms(r.LFSP50),
			"lfs_p95_ms":         ms(r.LFSP95),
			"lfs_p99_ms":         ms(r.LFSP99),
		}
	}
	res.Bench = map[string]any{"experiment": "concurrency", "curve": curve}
	return res, nil
}

// ms converts a simulated duration to milliseconds for display.
func ms(d sim.Duration) float64 { return d.Seconds() * 1000 }

// speedup returns v relative to base, 0 when base is 0.
func speedup(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base
}

// FormatConcurrency renders the throughput-vs-client-count curve.
func FormatConcurrency(rows []ConcurrencyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Concurrency - closed-loop clients issuing 4KB write+fsync (throughput in ops/s)\n")
	fmt.Fprintf(&b, "%8s %12s %12s %12s %9s %9s %8s %8s %10s %10s %8s %8s %8s\n",
		"clients", "lfs", "lfs-nogc", "ffs", "lfs-spdup", "ffs-spdup",
		"commits", "piggybk", "lfs-w/op", "ffs-w/op",
		"p50ms", "p95ms", "p99ms")
	var lfsBase, ffsBase float64
	for i, r := range rows {
		if i == 0 {
			lfsBase, ffsBase = r.LFSOpsPerSec, r.FFSOpsPerSec
		}
		fmt.Fprintf(&b, "%8d %12.1f %12.1f %12.1f %9.2f %9.2f %8d %8d %10.2f %10.2f %8.2f %8.2f %8.2f\n",
			r.Clients, r.LFSOpsPerSec, r.LFSNoGCOpsPerSec, r.FFSOpsPerSec,
			speedup(r.LFSOpsPerSec, lfsBase), speedup(r.FFSOpsPerSec, ffsBase),
			r.GroupCommits, r.Piggybacked, r.LFSWritesPerOp, r.FFSWritesPerOp,
			ms(r.LFSP50), ms(r.LFSP95), ms(r.LFSP99))
	}
	return b.String()
}
