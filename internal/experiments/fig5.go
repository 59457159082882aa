package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/workload"
)

// Fig5Row is one point of Figure 5: the rate (KB/s) at which clean
// segments can be generated when the segments being cleaned have the
// given utilization.
type Fig5Row struct {
	// Utilization is the live fraction of the cleaned segments.
	Utilization float64
	// RateKBps is clean bytes generated per simulated second.
	RateKBps float64
	// SegmentsCleaned and LiveCopied detail the run.
	SegmentsCleaned int
	LiveCopied      int
	BlocksExamined  int
}

// Fig5Opts scales the experiment.
type Fig5Opts struct {
	Capacity int64
	// NumFiles is how many 1 KB files to create before deleting a
	// fraction.
	NumFiles int
	// Utilizations is the x-axis sweep.
	Utilizations []float64
}

// DefaultFig5Opts returns a sweep matching the paper's x-axis.
func DefaultFig5Opts() Fig5Opts {
	return Fig5Opts{
		Capacity:     128 << 20,
		NumFiles:     20000,
		Utilizations: []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
	}
}

// Fig5 measures the §5.3 cleaning-rate curve: for each utilization u,
// create many 1 KB files, delete (1-u) of them evenly, and measure
// the simulated rate at which the cleaner generates clean segments.
func Fig5(opts Fig5Opts) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, u := range opts.Utilizations {
		cfg := core.DefaultConfig()
		// Let the bench drive cleaning explicitly.
		cfg.CleanThresholdSegments = 1
		cfg.CleanTargetSegments = 2
		// Allow cleaning of highly utilised segments (the sweep
		// reaches u=0.9) but never of fully compacted ones: a
		// sealed segment of pure live data reaches ~0.97
		// utilization (summary blocks are overhead), and cleaning
		// it frees nothing.
		cfg.MinLiveFraction = 0.96
		sys, err := NewLFS(opts.Capacity, cfg)
		if err != nil {
			return nil, err
		}
		if err := workload.Fragment(sys, workload.FragmentOpts{
			NumFiles: opts.NumFiles, FileSize: 1024,
			KeepFraction: u, Dir: "/frag", Seed: 11,
		}); err != nil {
			return nil, fmt.Errorf("fig5 u=%.2f: %w", u, err)
		}
		lfs := sys.System.(*core.FS)
		start := sys.Clock().Now()
		res, err := lfs.CleanUntil(int(opts.Capacity) / cfg.SegmentSize) // clean everything cleanable
		if err != nil {
			return nil, fmt.Errorf("fig5 u=%.2f clean: %w", u, err)
		}
		sys.Disk.Drain()
		elapsed := sys.Clock().Now().Sub(start)
		rate := 0.0
		if elapsed > 0 {
			rate = float64(res.BytesReclaimed) / 1024 / elapsed.Seconds()
		}
		rows = append(rows, Fig5Row{
			Utilization:     u,
			RateKBps:        rate,
			SegmentsCleaned: res.SegmentsCleaned,
			LiveCopied:      res.LiveCopied,
			BlocksExamined:  res.BlocksExamined,
		})
		if err := audit(lfs, fmt.Sprintf("fig5 u=%.2f", u)); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// runFig5 is the table's fig5 row.
func runFig5() (Result, error) {
	rows, err := Fig5(DefaultFig5Opts())
	return tabular(rows, err, FormatFig5, CSVFig5)
}

// FormatFig5 renders the curve as a table.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 - Segment cleaning rate vs segment utilization\n")
	fmt.Fprintf(&b, "%-12s %12s %10s %10s %10s\n", "utilization", "KB/s cleaned", "segments", "live", "examined")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12.2f %12.0f %10d %10d %10d\n",
			r.Utilization, r.RateKBps, r.SegmentsCleaned, r.LiveCopied, r.BlocksExamined)
	}
	return b.String()
}
