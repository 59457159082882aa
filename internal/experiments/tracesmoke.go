package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/obs"
	"lfs/internal/sim"
	"lfs/internal/workload"
)

// SmokeWorkload scales the workload the trace and metrics smokes
// share: a small-file create/read/delete pass followed by a churn
// phase that forces the cleaner to run, so every cause of disk traffic
// and every series the metrics plane exports moves during the run.
type SmokeWorkload struct {
	Capacity int64
	// NumFiles/FileSize parameterise the Figure 3 small-file pass.
	NumFiles int
	FileSize int
	// ChurnFiles are written and half-deleted afterwards to create
	// fragmented segments for the cleaner.
	ChurnFiles int
	// CleanSegments is how many extra clean segments to demand from
	// CleanUntil once the churn is done.
	CleanSegments int
	LFSConfig     core.Config
}

// defaultSmokeWorkload is a few thousand files on a small disk: a
// couple of simulated minutes.
func defaultSmokeWorkload() SmokeWorkload {
	return SmokeWorkload{
		Capacity:      64 << 20,
		NumFiles:      2000,
		FileSize:      1024,
		ChurnFiles:    3000,
		CleanSegments: 10,
		LFSConfig:     defaultLFSConfig(),
	}
}

// run builds an LFS from cfg — the caller's copy of LFSConfig with its
// recorder or sampler attached — and drives the workload through it:
// the small-file benchmark, then fill segments with churn files, delete
// every other one, and demand clean segments so the cleaner reads
// fragmented victims.
func (w SmokeWorkload) run(cfg core.Config) (*System, workload.SmallFileResult, error) {
	var res workload.SmallFileResult
	sys, err := NewLFS(w.Capacity, cfg)
	if err != nil {
		return nil, res, err
	}
	res, err = workload.SmallFile(sys, workload.SmallFileOpts{
		NumFiles: w.NumFiles, FileSize: w.FileSize,
		Dir: "/small", SyncBetweenPhases: true, Seed: 42,
	})
	if err != nil {
		return nil, res, fmt.Errorf("small-file: %w", err)
	}
	fs := sys.System.(*core.FS)
	if err := fs.Mkdir("/churn"); err != nil {
		return nil, res, err
	}
	payload := make([]byte, w.FileSize)
	for i := 0; i < w.ChurnFiles; i++ {
		p := fmt.Sprintf("/churn/f%d", i)
		if err := fs.Create(p); err != nil {
			return nil, res, err
		}
		if err := fs.Write(p, 0, payload); err != nil {
			return nil, res, err
		}
	}
	if err := fs.Sync(); err != nil {
		return nil, res, err
	}
	for i := 0; i < w.ChurnFiles; i += 2 {
		if err := fs.Remove(fmt.Sprintf("/churn/f%d", i)); err != nil {
			return nil, res, err
		}
	}
	if err := fs.Sync(); err != nil {
		return nil, res, err
	}
	if _, err := fs.CleanUntil(fs.CleanSegments() + w.CleanSegments); err != nil {
		return nil, res, fmt.Errorf("clean: %w", err)
	}
	return sys, res, fs.Sync()
}

// TraceSmokeOpts scales the tracing smoke experiment: the smoke
// workload under a trace recorder.
type TraceSmokeOpts struct {
	SmokeWorkload
	// Trace, when non-nil, is used instead of a fresh recorder, so a
	// caller can export the JSONL afterwards.
	Trace *obs.Recorder
}

// DefaultTraceSmokeOpts returns the default smoke workload.
func DefaultTraceSmokeOpts() TraceSmokeOpts {
	return TraceSmokeOpts{SmokeWorkload: defaultSmokeWorkload()}
}

// TraceSmokeResult reports the experiment's headline numbers plus the
// cross-checks the tracing subsystem is supposed to satisfy.
type TraceSmokeResult struct {
	Create workload.Phase
	Read   workload.Phase
	Delete workload.Phase

	// Attribution from the recorder's event stream.
	TraceNamed sim.Duration
	TraceBusy  sim.Duration
	// Attribution from the disk's own ByCause counters (includes
	// format-time I/O, which predates the tracer attachment).
	DiskNamed sim.Duration
	DiskBusy  sim.Duration

	// WriteCostTrace is the cleaner cost aggregated from per-activation
	// trace records; WriteCostStats is the same quantity derived from
	// the FS counters. The two must agree exactly.
	WriteCostTrace   float64
	WriteCostStats   float64
	CleanActivations int64

	Spans     int
	Aggregate *obs.Aggregates
	Snapshot  core.StatsSnapshot
}

// NamedShare returns the fraction of traced disk busy time carrying a
// named cause.
func (r *TraceSmokeResult) NamedShare() float64 {
	if r.TraceBusy == 0 {
		return 0
	}
	return r.TraceNamed.Seconds() / r.TraceBusy.Seconds()
}

// DiskNamedShare is NamedShare over the disk's lifetime ByCause
// counters.
func (r *TraceSmokeResult) DiskNamedShare() float64 {
	if r.DiskBusy == 0 {
		return 0
	}
	return r.DiskNamed.Seconds() / r.DiskBusy.Seconds()
}

// TraceSmoke runs the tracing smoke experiment on LFS: the small-file
// benchmark, then churn and explicit cleaning, with every disk request
// cause-tagged and every operation spanned.
func TraceSmoke(opts TraceSmokeOpts) (*TraceSmokeResult, error) {
	rec := opts.Trace
	if rec == nil {
		rec = obs.NewRecorder()
	}
	cfg := opts.LFSConfig
	cfg.Trace = rec
	sys, res, err := opts.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("tracesmoke: %w", err)
	}
	fs := sys.System.(*core.FS)

	snap := fs.StatsSnapshot()
	agg := rec.Aggregates()
	out := &TraceSmokeResult{
		Create: res.Create, Read: res.Read, Delete: res.Delete,
		WriteCostTrace:   agg.Clean.WriteCost,
		WriteCostStats:   snap.WriteCost(),
		CleanActivations: agg.Clean.Activations,
		Spans:            len(rec.Spans()),
		Aggregate:        agg,
		Snapshot:         snap,
	}
	out.TraceNamed, out.TraceBusy = agg.AttributedBusy()
	out.DiskNamed, out.DiskBusy = snap.Disk.AttributedBusy()
	return out, nil
}

// runTraceSmoke is the table's trace row: the recorder rides along in
// the Result so lfsbench -trace can export it, and the summary holds
// the headline numbers (ops/s, attribution share, write cost both
// ways) to the committed baseline.
func runTraceSmoke() (Result, error) {
	opts := DefaultTraceSmokeOpts()
	opts.Trace = obs.NewRecorder()
	r, err := TraceSmoke(opts)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Text:  FormatTraceSmoke(r),
		Trace: opts.Trace,
		Bench: map[string]any{
			"experiment":        "trace",
			"create_ops_per_s":  r.Create.OpsPerSec(),
			"read_ops_per_s":    r.Read.OpsPerSec(),
			"delete_ops_per_s":  r.Delete.OpsPerSec(),
			"disk_busy_s":       r.TraceBusy.Seconds(),
			"named_share":       r.NamedShare(),
			"clean_activations": r.CleanActivations,
			"write_cost":        r.WriteCostTrace,
			"write_cost_stats":  r.WriteCostStats,
			"spans":             r.Spans,
		},
	}, nil
}

// FormatTraceSmoke renders the result as the smoke-test report: the
// phase rates, the busy-time decomposition, and the cleaner summary.
func FormatTraceSmoke(r *TraceSmokeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tracing smoke test - small-file workload with cleaning\n")
	fmt.Fprintf(&b, "%v\n%v\n%v\n", r.Create, r.Read, r.Delete)
	fmt.Fprintf(&b, "disk busy %v, %.2f%% attributed to a named cause\n",
		r.TraceBusy, 100*r.NamedShare())
	for _, io := range r.Aggregate.IO {
		fmt.Fprintf(&b, "  %-14s %8d reqs %10d sectors %12v (%5.1f%%)\n",
			io.Cause, io.Requests, io.Sectors, io.Busy,
			100*io.Busy.Seconds()/r.TraceBusy.Seconds())
	}
	fmt.Fprintf(&b, "cleaner: %d activations, write cost %.2f (stats-derived %.2f)\n",
		r.CleanActivations, r.WriteCostTrace, r.WriteCostStats)
	fmt.Fprintf(&b, "victim utilisation: %v\n", r.Aggregate.Clean.Utilization)
	return b.String()
}
