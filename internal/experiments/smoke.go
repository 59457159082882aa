package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/obs"
	"lfs/internal/sim"
	"lfs/internal/workload"
)

// smokeWorkload scales the workload the trace and metrics rows share:
// a small-file create/read/delete pass followed by a churn phase that
// forces the cleaner to run, so every cause of disk traffic and every
// series the metrics plane exports moves during the run.
type smokeWorkload struct {
	capacity int64
	// numFiles/fileSize parameterise the Figure 3 small-file pass.
	numFiles, fileSize int
	// churnFiles are written, then every other one deleted, to fragment
	// segments for the cleaner.
	churnFiles int
	// cleanSegments is how many extra clean segments to demand from
	// CleanUntil once the churn is done.
	cleanSegments int
}

// defaultSmoke is a few thousand files on a small disk: a couple of
// simulated minutes.
var defaultSmoke = smokeWorkload{
	capacity:      64 << 20,
	numFiles:      2000,
	fileSize:      1024,
	churnFiles:    3000,
	cleanSegments: 10,
}

// run builds a default-config LFS with whichever observers it is
// handed (nil for none, though NewLFS still attaches MetricsSink's
// sampler when samp is nil) and drives the workload through it: the
// small-file benchmark, then fill segments with churn files, delete
// every other one, and demand clean segments so the cleaner reads
// fragmented victims.
func (w smokeWorkload) run(rec *obs.Recorder, samp *obs.Sampler) (sys *System, res workload.SmallFileResult, err error) {
	cfg := core.DefaultConfig()
	cfg.Trace, cfg.Metrics = rec, samp
	if sys, err = NewLFS(w.capacity, cfg); err != nil {
		return nil, res, err
	}
	res, err = workload.SmallFile(sys, workload.SmallFileOpts{
		NumFiles: w.numFiles, FileSize: w.fileSize,
		Dir: "/small", Seed: 42,
	})
	if err != nil {
		return nil, res, fmt.Errorf("small-file: %w", err)
	}
	fs := sys.System.(*core.FS)
	if err := fs.Mkdir("/churn"); err != nil {
		return nil, res, err
	}
	payload := make([]byte, w.fileSize)
	for i := 0; i < w.churnFiles; i++ {
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
	for i := 0; i < w.churnFiles; i += 2 {
		if err := fs.Remove(fmt.Sprintf("/churn/f%d", i)); err != nil {
			return nil, res, err
		}
	}
	if err := fs.Sync(); err != nil {
		return nil, res, err
	}
	if _, err := fs.CleanUntil(fs.CleanSegments() + w.cleanSegments); err != nil {
		return nil, res, fmt.Errorf("clean: %w", err)
	}
	return sys, res, fs.Sync()
}

// runTraceSmoke is the table's trace row: the smoke workload with
// every disk request cause-tagged and every operation spanned. The
// recorder rides along in the Result so lfsbench -trace can export it.
func runTraceSmoke() (Result, error) {
	rec := obs.NewRecorder()
	sys, res, err := defaultSmoke.run(rec, nil)
	if err != nil {
		return Result{}, fmt.Errorf("tracesmoke: %w", err)
	}
	return traceResult(res, rec, sys.System.(*core.FS).StatsSnapshot()), nil
}

// traceResult formats a traced run: the phase rates, the busy-time
// decomposition and the cleaner summary as the report, and the
// headline numbers (ops/s, attribution share, write cost from the
// trace and from the counters) as the summary held to the baseline.
func traceResult(res workload.SmallFileResult, rec *obs.Recorder, snap core.StatsSnapshot) Result {
	agg := rec.Aggregates()
	named, busy := agg.AttributedBusy()
	share := named.Seconds() / busy.Seconds()
	var b strings.Builder
	fmt.Fprintf(&b, "Tracing smoke test - small-file workload with cleaning\n")
	fmt.Fprintf(&b, "%v\n%v\n%v\n", res.Create, res.Read, res.Delete)
	fmt.Fprintf(&b, "disk busy %v, %.2f%% attributed to a named cause\n", busy, 100*share)
	for _, io := range agg.IO {
		fmt.Fprintf(&b, "  %-14s %8d reqs %10d sectors %12v (%5.1f%%)\n",
			io.Cause, io.Requests, io.Sectors, io.Busy,
			100*io.Busy.Seconds()/busy.Seconds())
	}
	fmt.Fprintf(&b, "cleaner: %d activations, write cost %.2f (stats-derived %.2f)\n",
		agg.Clean.Activations, agg.Clean.WriteCost, snap.WriteCost())
	fmt.Fprintf(&b, "victim utilisation: %v\n", agg.Clean.Utilization)
	return Result{
		Text:  b.String(),
		Trace: rec,
		Bench: map[string]any{
			"experiment":        "trace",
			"create_ops_per_s":  res.Create.OpsPerSec(),
			"read_ops_per_s":    res.Read.OpsPerSec(),
			"delete_ops_per_s":  res.Delete.OpsPerSec(),
			"disk_busy_s":       busy.Seconds(),
			"named_share":       share,
			"clean_activations": agg.Clean.Activations,
			"write_cost":        agg.Clean.WriteCost,
			"write_cost_stats":  snap.WriteCost(),
			"spans":             len(rec.Spans()),
		},
	}
}

// runMetricsSmoke is the table's metrics row: the smoke workload
// sampled once per simulated second, ending in a forced sample so the
// series' final values pin the end-of-run state. The trace row forces
// none, so its lfsbench -metrics export ends on the last tick.
func runMetricsSmoke() (Result, error) {
	samp := obs.NewSampler(sim.Second)
	if MetricsSink != nil {
		// lfsbench -metrics: the sink labels the sampler and keeps it
		// for the combined JSONL export.
		samp = MetricsSink("LFS")
	}
	sys, _, err := defaultSmoke.run(nil, samp)
	if err != nil {
		return Result{}, fmt.Errorf("metricssmoke: %w", err)
	}
	fs := sys.System.(*core.FS)
	fs.SampleMetricsNow()
	return metricsResult(samp.Samples(), fs.StatsSnapshot())
}

// metricsResult formats a sampled run whose last sample was forced at
// its end: the series shape, and the final sample's counters and
// gauges, which must be the end state itself, not an approximation.
func metricsResult(samples []obs.Sample, snap core.StatsSnapshot) (Result, error) {
	if len(samples) < 2 {
		return Result{}, fmt.Errorf("metricssmoke: only %d samples over the run", len(samples))
	}
	final := samples[len(samples)-1]
	elapsed := sim.Time(final.Time).Sub(sim.Time(samples[0].Time))
	series := len(obs.SeriesNames(samples))
	ops, blocks := final.Counters["ops"], final.Counters["log.blocks_written"]
	cleaned := final.Counters["cleaner.segments_cleaned"]
	cost, clean := final.Gauges["cleaner.write_cost"], final.Gauges["seg.clean"]
	var b strings.Builder
	fmt.Fprintf(&b, "Metrics smoke test - small-file workload with cleaning, sampled on the sim clock\n")
	fmt.Fprintf(&b, "%d samples over %v, %d series\n", len(samples), elapsed, series)
	fmt.Fprintf(&b, "final: %d ops, %d blocks written, %d segments cleaned, write cost %.2f (stats %.2f), %g clean segments\n",
		ops, blocks, cleaned, cost, snap.WriteCost(), clean)
	fmt.Fprintf(&b, "segment utilisation: %v\n", final.Hists["seg.util"])
	return Result{
		Text: b.String(),
		Bench: map[string]any{
			"experiment":             "metrics",
			"samples":                len(samples),
			"series":                 series,
			"elapsed_s":              elapsed.Seconds(),
			"final_ops":              ops,
			"final_blocks_written":   blocks,
			"final_segments_cleaned": cleaned,
			"final_write_cost":       cost,
			"final_clean_segments":   clean,
		},
	}, nil
}
