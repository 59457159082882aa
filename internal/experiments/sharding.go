package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/server"
	"lfs/internal/shard"
	"lfs/internal/sim"
)

// ShardingOpts scales the multi-log scale-out experiment: a fixed
// population of closed-loop commit clients drives 1..N independent
// logs behind one router, measuring how throughput grows as the
// single append point — the paper's implicit bottleneck — is split.
type ShardingOpts struct {
	// TotalCapacity is divided evenly among a cell's shards, so every
	// cell manages the same number of bytes.
	TotalCapacity int64
	// ShardCounts is the sweep's x-axis; it should start at 1 so
	// speedups have a base.
	ShardCounts []int
	// Clients and OpsPerClient size the closed loops (clientLoad); the
	// client population is the same for every shard count.
	Clients      int
	OpsPerClient int
}

// DefaultShardingOpts returns the paper-scale sweep: 32 clients
// against 1..8 shards of shardConfig.
func DefaultShardingOpts() ShardingOpts {
	return ShardingOpts{
		TotalCapacity: 256 << 20,
		ShardCounts:   []int{1, 2, 4, 8},
		Clients:       32,
		OpsPerClient:  128,
	}
}

// shardConfig is every shard's configuration: group commit on, on a
// CPU twenty times the Sun4. Sharding attacks the single append point,
// which only binds once the CPU outruns one disk — exactly the §3.1
// trend argument (CPU speed growing exponentially against flat disk
// speed), so the experiment models the machine that trend produces. On
// the original 10-MIPS Sun4 the serial CPU dominates and extra logs
// cannot help.
func shardConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.GroupCommit = true
	cfg.MIPS = 20 * sim.Sun4MIPS
	return cfg
}

// crashCut is the 1-based disk-write index at which the crash scenario
// cuts power on shard 0.
const crashCut = 5

// ShardingRow is one shard count's measurements.
type ShardingRow struct {
	Shards  int
	Clients int
	// OpsPerSec is aggregate committed-operation throughput; Speedup
	// is relative to the sweep's first row.
	OpsPerSec float64
	Speedup   float64
	// P50/P95/P99 are operation-latency percentiles merged across
	// clients.
	P50 sim.Duration
	P95 sim.Duration
	P99 sim.Duration
	// WritesPerOp is disk write requests per operation, summed over
	// every shard's disk.
	WritesPerOp float64
}

// ShardingCrash summarises the fault-injection scenario: power cut
// on one shard of four mid-run while the others keep committing,
// then per-shard recovery through the router.
type ShardingCrash struct {
	Shards int
	// CutWrite is the disk-write index the power cut fired at.
	CutWrite int64
	// ToleratedErrors counts client operations abandoned while the
	// crashed shard was down; HealthyOps counts operations that
	// committed during the same window.
	ToleratedErrors int64
	HealthyOps      int64
	// FilesRetained counts pre-crash committed files still present
	// (with their full size) after recovery — over all shards,
	// crashed one included.
	FilesRetained int
	// FsckOk reports that every shard's image passed the offline
	// consistency check after the final unmount.
	FsckOk bool
}

// ShardingResult is the whole experiment: the scale-out curve, the
// crash scenario, and the same-seed determinism verdict.
type ShardingResult struct {
	Rows  []ShardingRow
	Crash ShardingCrash
	// Deterministic reports that rerunning the largest cell with the
	// same seed reproduced every shard's disk image byte for byte.
	Deterministic bool
}

// NewSharded formats and mounts an n-shard system over fresh
// memory-backed disks on one simulated clock, wiring a fresh metrics
// sampler per shard when the MetricsSink is installed (series are
// labelled shard-0, shard-1, ...).
func NewSharded(n int, totalCapacity int64, cfg core.Config) (*shard.FS, error) {
	opts := shard.Options{Base: cfg}
	if MetricsSink != nil {
		opts.ShardConfig = func(i int, c core.Config) core.Config {
			if c.Metrics == nil {
				c.Metrics = MetricsSink("shard")
			}
			return c
		}
	}
	return shard.NewMem(n, totalCapacity, opts)
}

// runCell builds a fresh n-shard system, drives the configured client
// population and unmounts it, returning the system — its disks hold
// the final images — with the run's row.
func runCell(opts ShardingOpts, n int) (*shard.FS, ShardingRow, error) {
	row := ShardingRow{Shards: n, Clients: opts.Clients}
	fs, err := NewSharded(n, opts.TotalCapacity, shardConfig())
	if err != nil {
		return nil, row, err
	}
	disks := make([]*disk.Disk, n)
	for i := range disks {
		disks[i] = fs.Disk(i)
	}
	run, err := runClients(fs, clientLoad(opts.Clients, opts.OpsPerClient), disks...)
	if err != nil {
		return nil, row, err
	}
	if err := fs.Unmount(); err != nil {
		return nil, row, fmt.Errorf("unmount: %w", err)
	}
	row.OpsPerSec, row.WritesPerOp = run.OpsPerSecond(), run.WritesPerOp
	row.P50, row.P95, row.P99 = run.P50, run.P95, run.P99
	return fs, row, nil
}

// sameImages reports whether two unmounted systems of one shard count
// hold byte-identical images, shard by shard.
func sameImages(a, b *shard.FS) (bool, error) {
	for i := 0; i < a.NumShards(); i++ {
		sa, sb := a.Disk(i).Store(), b.Disk(i).Store()
		ia, ib := make([]byte, sa.Size()), make([]byte, sb.Size())
		if err := sa.ReadAt(ia, 0); err != nil {
			return false, fmt.Errorf("reading shard %d image: %w", i, err)
		}
		if err := sb.ReadAt(ib, 0); err != nil {
			return false, fmt.Errorf("reading shard %d image: %w", i, err)
		}
		if !bytes.Equal(ia, ib) {
			return false, nil
		}
	}
	return true, nil
}

// Sharding sweeps shard counts at a fixed client population, then
// reruns the sweep's largest cell and runs the crash scenario.
func Sharding(opts ShardingOpts) (*ShardingResult, error) {
	// The sweep keeps its largest cell for the determinism check.
	var largest *shard.FS
	rows, err := sweep("sharding", opts.ShardCounts, func(n int) (ShardingRow, error) {
		fs, row, err := runCell(opts, n)
		if err == nil && (largest == nil || n > largest.NumShards()) {
			largest = fs
		}
		return row, err
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].Speedup = speedup(rows[i].OpsPerSec, rows[0].OpsPerSec)
	}
	res := &ShardingResult{Rows: rows}

	// Determinism: rerun the largest cell with the same seed and
	// compare every shard's image with the sweep's, byte for byte.
	rerun, _, err := runCell(opts, largest.NumShards())
	if err == nil {
		res.Deterministic, err = sameImages(largest, rerun)
	}
	if err != nil {
		return nil, fmt.Errorf("sharding: rerun: %w", err)
	}

	if res.Crash, err = shardingCrash(opts); err != nil {
		return nil, err
	}
	return res, nil
}

// shardingCrash runs the four-shard fault scenario: a healthy
// committed phase, a power cut on shard 0 mid-phase-two with the
// healthy shards still committing, per-shard recovery through the
// router, and an offline fsck of all four images.
func shardingCrash(opts ShardingOpts) (ShardingCrash, error) {
	const n = 4
	out := ShardingCrash{Shards: n, CutWrite: crashCut}
	fs, err := NewSharded(n, opts.TotalCapacity, shardConfig())
	if err != nil {
		return out, fmt.Errorf("sharding: crash: %w", err)
	}
	scfg := clientLoad(opts.Clients, opts.OpsPerClient)

	// Phase A: healthy, every op fsynced; then Sync commits the
	// directory tree too.
	if _, err := server.Run(fs, scfg); err != nil {
		return out, fmt.Errorf("sharding: crash phase A: %w", err)
	}
	if err := fs.Sync(); err != nil {
		return out, fmt.Errorf("sharding: crash phase A sync: %w", err)
	}

	// Phase B: arm the power cut on shard 0 and keep driving all
	// shards, tolerating the dead shard's errors.
	fs.Disk(0).SetFaultPolicy(&disk.CrashPlan{CutWrite: crashCut})
	scfgB := scfg
	scfgB.Seed++
	scfgB.OnOpError = func(client int, err error) bool { return true }
	resB, err := server.Run(fs, scfgB)
	if err != nil {
		return out, fmt.Errorf("sharding: crash phase B: %w", err)
	}
	out.ToleratedErrors = resB.Errors
	out.HealthyOps = resB.Ops

	// Recover shard 0 through the router; the other shards are
	// untouched.
	if err := fs.RecoverShard(0); err != nil {
		return out, fmt.Errorf("sharding: recovering shard 0: %w", err)
	}

	// Every phase-A file must have survived somewhere with its full
	// size — on the crashed shard via its own roll-forward, on the
	// healthy shards trivially.
	for c := 1; c <= scfg.Clients; c++ {
		for s := 0; s < scfg.FilesPerClient; s++ {
			p := fmt.Sprintf("/client%02d/f%03d", c, s)
			fi, err := fs.Stat(p)
			if err != nil {
				return out, fmt.Errorf("sharding: post-recovery %s: %w", p, err)
			}
			if fi.Size != int64(scfg.WriteSize) {
				return out, fmt.Errorf("sharding: post-recovery %s: size %d, want %d", p, fi.Size, scfg.WriteSize)
			}
			out.FilesRetained++
		}
	}

	if err := fs.Unmount(); err != nil {
		return out, fmt.Errorf("sharding: crash unmount: %w", err)
	}
	for i := 0; i < n; i++ {
		rep, err := core.Fsck(fs.Disk(i), shardConfig())
		if err != nil {
			return out, fmt.Errorf("sharding: fsck shard %d: %w", i, err)
		}
		if !rep.Ok() {
			return out, fmt.Errorf("sharding: fsck shard %d: %v", i, rep.Problems)
		}
	}
	out.FsckOk = true
	return out, nil
}

// runSharding is the table's sharding row. The crash scenario fails
// Sharding itself on data loss or a dirty fsck; determinism is a
// verdict too, so a diverging rerun is returned as the error, with the
// report still in the Result.
func runSharding() (Result, error) {
	sr, err := Sharding(DefaultShardingOpts())
	res, err := tabular(sr, err, FormatSharding, CSVSharding)
	if err != nil {
		return res, err
	}
	if !sr.Deterministic {
		return res, fmt.Errorf("sharding: same-seed rerun produced different shard images")
	}
	curve := make([]map[string]any, len(sr.Rows))
	for i, r := range sr.Rows {
		curve[i] = map[string]any{
			"shards":        r.Shards,
			"clients":       r.Clients,
			"ops_per_s":     r.OpsPerSec,
			"speedup":       r.Speedup,
			"writes_per_op": r.WritesPerOp,
			"p50_ms":        ms(r.P50),
			"p95_ms":        ms(r.P95),
			"p99_ms":        ms(r.P99),
		}
	}
	// The two verdicts are recorded as 1, not true, as the committed
	// baseline has them. Both are 1 here: a diverging rerun returned
	// above, a dirty fsck failed Sharding.
	res.Bench = map[string]any{
		"experiment":             "sharding",
		"curve":                  curve,
		"speedup_at_max":         sr.Rows[len(sr.Rows)-1].Speedup,
		"deterministic":          1,
		"crash_tolerated_errors": sr.Crash.ToleratedErrors,
		"crash_healthy_ops":      sr.Crash.HealthyOps,
		"crash_files_retained":   sr.Crash.FilesRetained,
		"crash_fsck_ok":          1,
	}
	return res, nil
}

// FormatSharding renders the scale-out curve and the crash verdict.
func FormatSharding(res *ShardingResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharding - ops/s vs shard count at fixed clients (multi-log scale-out)\n")
	fmt.Fprintf(&b, "%8s %8s %12s %8s %10s %8s %8s %8s\n",
		"shards", "clients", "ops/s", "speedup", "w/op", "p50ms", "p95ms", "p99ms")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%8d %8d %12.1f %8.2f %10.2f %8.2f %8.2f %8.2f\n",
			r.Shards, r.Clients, r.OpsPerSec, r.Speedup, r.WritesPerOp,
			ms(r.P50), ms(r.P95), ms(r.P99))
	}
	fmt.Fprintf(&b, "deterministic: %v (largest cell rerun, per-shard images byte-identical)\n",
		res.Deterministic)
	c := res.Crash
	fmt.Fprintf(&b, "crash: %d shards, power cut at shard-0 write %d: %d ops committed on healthy shards, %d errors tolerated, %d files retained after recovery, fsck ok: %v\n",
		c.Shards, c.CutWrite, c.HealthyOps, c.ToleratedErrors, c.FilesRetained, c.FsckOk)
	return b.String()
}
