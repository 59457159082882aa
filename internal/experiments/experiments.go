// Package experiments reproduces every figure of the paper's
// evaluation (§5) plus the §3.1 CPU-scaling observation and the §4.4
// recovery comparison. Each experiment builds fresh file systems on
// simulated WREN IV disks, runs the paper's workload, and returns the
// same rows/series the paper plots.
//
// Table (table.go) is the one description of every experiment: a name,
// a line of help, the committed baseline it is gated on if any, and a
// Run function — default options, run, format — that lives in the file
// of the experiment it belongs to. The defaults are the paper's scale
// and there is no other: cmd/lfsbench is a loop over the table,
// scripts/ci.sh holds what that loop prints to bench_results.txt and
// the summaries to BENCH_*.json, the root package's BenchmarkExperiment
// times each row, and the tests here assert the results' shapes on
// smaller options of their own.
package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/ffs"
	"lfs/internal/obs"
	"lfs/internal/sim"
	"lfs/internal/workload"
)

// DiskCapacity is the evaluation volume size: the paper formatted
// "around 300 megabytes of usable storage".
const DiskCapacity = 300 << 20

// System bundles a mounted file system with its disk for
// instrumentation.
type System struct {
	workload.System
	Name string
	Disk *disk.Disk
}

// MetricsSink, when set, supplies a metrics sampler for every LFS an
// experiment builds (a fresh sampler per instance — samplers bind to
// exactly one file system). cmd/lfsbench sets it when -metrics is
// given, so every experiment gains time-series sampling without each
// one growing a sampler option; an experiment that sets cfg.Metrics
// itself takes precedence. The name is the experiment-visible system
// label ("LFS"); the sink labels the returned sampler.
var MetricsSink func(name string) *obs.Sampler

// NewLFS formats and mounts an LFS on a fresh simulated disk.
func NewLFS(capacity int64, cfg core.Config) (*System, error) {
	if cfg.Metrics == nil && MetricsSink != nil {
		cfg.Metrics = MetricsSink("LFS")
	}
	d := disk.NewMem(capacity, sim.NewClock())
	if err := core.Format(d, cfg); err != nil {
		return nil, err
	}
	fs, err := core.Mount(d, cfg)
	if err != nil {
		return nil, err
	}
	return &System{System: fs, Name: "LFS", Disk: d}, nil
}

// NewFFS formats and mounts the SunOS-style baseline on a fresh
// simulated disk.
func NewFFS(capacity int64, cfg ffs.Config) (*System, error) {
	d := disk.NewMem(capacity, sim.NewClock())
	if err := ffs.Format(d, cfg); err != nil {
		return nil, err
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		return nil, err
	}
	return &System{System: fs, Name: "SunFFS", Disk: d}, nil
}

// audit runs Check() on a volume a row has just measured: the cleaner
// (§4.3) acts on the segment usage array and roll-forward (§4.4)
// rebuilds it, and Check() recounts it from what the files hold. A
// problem fails the row. Call it after
// the row's figures are read: the check charges simulated time.
func audit(fs *core.FS, what string) error {
	rep, err := fs.Check()
	if err != nil {
		return fmt.Errorf("%s: check: %w", what, err)
	}
	if !rep.Ok() {
		return fmt.Errorf("%s: check: %s", what, strings.Join(rep.Problems, "; "))
	}
	return nil
}
