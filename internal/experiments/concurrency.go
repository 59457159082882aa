package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/ffs"
	"lfs/internal/obs"
	"lfs/internal/server"
	"lfs/internal/sim"
)

// ConcurrencyOpts scales the multi-client throughput experiment: N
// closed-loop clients issuing 4 KB write+fsync operations against one
// file system (§4.1's many-users-one-server environment).
type ConcurrencyOpts struct {
	Capacity int64
	// ClientCounts is the sweep's x-axis; it should start at 1 so
	// speedups have a base.
	ClientCounts []int
	// OpsPerClient, WriteSize, and ThinkTime shape each client's
	// closed loop (see server.Config).
	OpsPerClient int
	WriteSize    int
	ThinkTime    sim.Duration
	// Seed drives every run; the same seed reproduces every schedule.
	Seed      int64
	LFSConfig core.Config
	FFSConfig ffs.Config
}

// DefaultConcurrencyOpts returns a CI-sized sweep: 1..16 clients, 64
// commits each, no think time (the clients are disk-bound, which is
// where the batching question is interesting).
func DefaultConcurrencyOpts() ConcurrencyOpts {
	return ConcurrencyOpts{
		Capacity:     128 << 20,
		ClientCounts: []int{1, 2, 4, 8, 16},
		OpsPerClient: 64,
		WriteSize:    4096,
		Seed:         42,
		LFSConfig:    defaultLFSConfig(),
		FFSConfig:    ffs.DefaultConfig(),
	}
}

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

// latencyPercentiles merges the per-client latency histograms and
// returns the p50/p95/p99 operation latencies.
func latencyPercentiles(per []server.ClientStats) (p50, p95, p99 sim.Duration, err error) {
	merged := obs.NewLatencyHistogram()
	for i := range per {
		if e := merged.Merge(per[i].Latency); e != nil {
			return 0, 0, 0, e
		}
	}
	//lfslint:allow floataccum converting reported histogram quantiles for display; the result feeds no accounting state
	toDur := func(s float64) sim.Duration { return sim.Duration(s * float64(sim.Second)) }
	return toDur(merged.Quantile(0.5)), toDur(merged.Quantile(0.95)), toDur(merged.Quantile(0.99)), nil
}

// Concurrency sweeps client counts over LFS (group commit on and off)
// and FFS, one fresh file system per cell so runs never share state.
func Concurrency(opts ConcurrencyOpts) ([]ConcurrencyRow, error) {
	if len(opts.ClientCounts) == 0 {
		return nil, fmt.Errorf("concurrency: empty client counts")
	}
	rows := make([]ConcurrencyRow, 0, len(opts.ClientCounts))
	for _, n := range opts.ClientCounts {
		if n < 1 {
			return nil, fmt.Errorf("concurrency: client count %d", n)
		}
		scfg := server.Config{
			Clients:        n,
			OpsPerClient:   opts.OpsPerClient,
			WriteSize:      opts.WriteSize,
			FilesPerClient: 8,
			ThinkTime:      opts.ThinkTime,
			Seed:           opts.Seed,
		}
		row := ConcurrencyRow{Clients: n}

		// LFS with group commit.
		lcfg := opts.LFSConfig
		lcfg.GroupCommit = true
		sys, err := NewLFS(opts.Capacity, lcfg)
		if err != nil {
			return nil, err
		}
		lfs := sys.System.(*core.FS)
		// When a metrics sampler is attached (lfsbench -metrics), the
		// event loop pumps it at the sampler's own interval and a
		// final forced sample pins the end-of-run state.
		if samp := lfs.Metrics(); samp != nil {
			scfg.MetricsInterval = samp.Interval()
		} else {
			scfg.MetricsInterval = 0
		}
		res, err := server.Run(lfs, scfg)
		if err != nil {
			return nil, fmt.Errorf("concurrency: lfs %d clients: %w", n, err)
		}
		lfs.SampleMetricsNow()
		st := lfs.Stats()
		row.LFSOpsPerSec = res.OpsPerSecond()
		if row.LFSP50, row.LFSP95, row.LFSP99, err = latencyPercentiles(res.PerClient); err != nil {
			return nil, fmt.Errorf("concurrency: merging latency histograms: %w", err)
		}
		row.GroupCommits = st.GroupCommits
		row.Piggybacked = st.PiggybackedSyncs
		row.LFSWritesPerOp = float64(sys.Disk.Stats().Writes) / float64(res.Ops)

		// LFS without group commit (the ablation: same log, every
		// fsync pays its own flush).
		sys2, err := NewLFS(opts.Capacity, opts.LFSConfig)
		if err != nil {
			return nil, err
		}
		lfs2 := sys2.System.(*core.FS)
		if samp := lfs2.Metrics(); samp != nil {
			scfg.MetricsInterval = samp.Interval()
		} else {
			scfg.MetricsInterval = 0
		}
		res2, err := server.Run(lfs2, scfg)
		if err != nil {
			return nil, fmt.Errorf("concurrency: lfs-nogc %d clients: %w", n, err)
		}
		lfs2.SampleMetricsNow()
		row.LFSNoGCOpsPerSec = res2.OpsPerSecond()
		scfg.MetricsInterval = 0

		// FFS baseline.
		fsys, err := NewFFS(opts.Capacity, opts.FFSConfig)
		if err != nil {
			return nil, err
		}
		res3, err := server.Run(fsys.System.(*ffs.FS), scfg)
		if err != nil {
			return nil, fmt.Errorf("concurrency: ffs %d clients: %w", n, err)
		}
		row.FFSOpsPerSec = res3.OpsPerSecond()
		row.FFSWritesPerOp = float64(fsys.Disk.Stats().Writes) / float64(res3.Ops)

		rows = append(rows, row)
	}
	return rows, nil
}

// runConcurrency is the table's concurrency row; the whole curve is the
// gated summary.
func runConcurrency() (Result, error) {
	rows, err := Concurrency(DefaultConcurrencyOpts())
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
