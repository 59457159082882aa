package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/obs"
	"lfs/internal/sim"
)

// MetricsSmokeOpts scales the metrics-plane smoke experiment: the
// smoke workload under a metrics sampler.
type MetricsSmokeOpts struct {
	SmokeWorkload
	// Interval is the sampling interval in simulated time.
	Interval sim.Duration
	// Metrics, when non-nil, is used instead of a fresh sampler, so a
	// caller can export the JSONL afterwards (Interval is ignored).
	Metrics *obs.Sampler
}

// DefaultMetricsSmokeOpts returns the default smoke workload, sampled
// once per simulated second.
func DefaultMetricsSmokeOpts() MetricsSmokeOpts {
	return MetricsSmokeOpts{SmokeWorkload: defaultSmokeWorkload(), Interval: sim.Second}
}

// MetricsSmokeResult reports the series shape plus the final sample's
// agreement with the end-of-run aggregates — the property the plane
// promises: the last (forced) sample IS the end state, not an
// approximation of it.
type MetricsSmokeResult struct {
	// Samples and Series describe the exported time series.
	Samples int
	Series  int
	// Elapsed is the simulated duration covered by the samples.
	Elapsed sim.Duration

	// FinalOps/FinalBlocksWritten/FinalSegmentsCleaned are counters
	// from the final sample; the matching Snapshot fields must equal
	// them exactly.
	FinalOps             int64
	FinalBlocksWritten   int64
	FinalSegmentsCleaned int64
	// FinalWriteCost and FinalCleanSegs are gauges from the final
	// sample.
	FinalWriteCost float64
	FinalCleanSegs float64
	// FinalUtil is the final segment-utilization histogram.
	FinalUtil obs.Histogram

	Snapshot core.StatsSnapshot
	Final    obs.Sample
}

// MetricsSmoke runs the metrics-plane smoke experiment: the small-file
// benchmark plus churn and cleaning with a sampler attached, ending in
// a forced sample so the series' final values pin the end-of-run
// state.
func MetricsSmoke(opts MetricsSmokeOpts) (*MetricsSmokeResult, error) {
	samp := opts.Metrics
	if samp == nil && MetricsSink != nil {
		// lfsbench -metrics: let the sink label the sampler and keep
		// it for the combined JSONL export.
		samp = MetricsSink("LFS")
	}
	if samp == nil {
		interval := opts.Interval
		if interval <= 0 {
			interval = sim.Second
		}
		samp = obs.NewSampler(interval)
	}
	cfg := opts.LFSConfig
	cfg.Metrics = samp
	sys, _, err := opts.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("metricssmoke: %w", err)
	}
	fs := sys.System.(*core.FS)
	fs.SampleMetricsNow()

	samples := samp.Samples()
	if len(samples) < 2 {
		return nil, fmt.Errorf("metricssmoke: only %d samples over the run", len(samples))
	}
	final := samples[len(samples)-1]
	out := &MetricsSmokeResult{
		Samples:              len(samples),
		Series:               len(obs.SeriesNames(samples)),
		Elapsed:              sim.Time(final.Time).Sub(sim.Time(samples[0].Time)),
		FinalOps:             final.Counters["ops"],
		FinalBlocksWritten:   final.Counters["log.blocks_written"],
		FinalSegmentsCleaned: final.Counters["cleaner.segments_cleaned"],
		FinalWriteCost:       final.Gauges["cleaner.write_cost"],
		FinalCleanSegs:       final.Gauges["seg.clean"],
		FinalUtil:            final.Hists["seg.util"],
		Snapshot:             fs.StatsSnapshot(),
		Final:                final,
	}
	return out, nil
}

// runMetricsSmoke is the table's metrics row.
func runMetricsSmoke() (Result, error) {
	r, err := MetricsSmoke(DefaultMetricsSmokeOpts())
	if err != nil {
		return Result{}, err
	}
	return Result{
		Text: FormatMetricsSmoke(r),
		Bench: map[string]any{
			"experiment":             "metrics",
			"samples":                r.Samples,
			"series":                 r.Series,
			"elapsed_s":              r.Elapsed.Seconds(),
			"final_ops":              r.FinalOps,
			"final_blocks_written":   r.FinalBlocksWritten,
			"final_segments_cleaned": r.FinalSegmentsCleaned,
			"final_write_cost":       r.FinalWriteCost,
			"final_clean_segments":   r.FinalCleanSegs,
		},
	}, nil
}

// FormatMetricsSmoke renders the result as the smoke-test report.
func FormatMetricsSmoke(r *MetricsSmokeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Metrics smoke test - small-file workload with cleaning, sampled on the sim clock\n")
	fmt.Fprintf(&b, "%d samples over %v, %d series\n", r.Samples, r.Elapsed, r.Series)
	fmt.Fprintf(&b, "final: %d ops, %d blocks written, %d segments cleaned, write cost %.2f (stats %.2f), %g clean segments\n",
		r.FinalOps, r.FinalBlocksWritten, r.FinalSegmentsCleaned,
		r.FinalWriteCost, r.Snapshot.WriteCost(), r.FinalCleanSegs)
	fmt.Fprintf(&b, "segment utilisation: %v\n", r.FinalUtil)
	return b.String()
}
