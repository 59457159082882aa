package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/workload"
)

// UtilizationResult answers the open question the paper poses in
// §5.3: "For nonsynthetic workloads, segment utilization will form a
// distribution having a mean equal to the overall disk utilization
// ... It is currently not known what the segment distribution looks
// like for nonsynthetic workloads." We run the office/engineering
// trace until the log has wrapped the disk several times, then report
// the distribution of per-segment utilization.
type UtilizationResult struct {
	// Policy is the cleaning policy the volume was aged under.
	Policy core.CleanPolicy
	// Histogram buckets the dirty segments' live fractions into
	// ten 10%-wide bins.
	Histogram [10]int
	// Samples is the number of dirty segments measured.
	Samples int
	// MeanSegmentUtil is the distribution's mean.
	MeanSegmentUtil float64
	// DiskUtil is live bytes over log capacity at measurement time.
	DiskUtil float64
	// Trace summarises the workload that aged the volume.
	Trace workload.OfficeResult
	// CleanerStats is the LFS activity during the run.
	CleanerStats core.Stats
}

// UtilizationOpts parameterises the experiment.
type UtilizationOpts struct {
	Capacity int64
	Office   workload.OfficeOpts
	// Policy selects the cleaning policy whose residual
	// distribution is measured.
	Policy core.CleanPolicy
}

// DefaultUtilizationOpts ages a 64 MB volume with a long office
// trace (enough traffic to wrap the log several times). The
// population is sized for ~60-70% disk utilization: the office size
// distribution averages ~16 KB per file.
func DefaultUtilizationOpts() UtilizationOpts {
	o := workload.DefaultOffice()
	o.Ops = 60000
	o.TargetFiles = 2500
	o.MeanLifetimeOps = 8000
	return UtilizationOpts{Capacity: 64 << 20, Office: o}
}

// UtilizationDistribution runs the office trace on LFS and measures
// the segment utilization distribution of the aged volume.
func UtilizationDistribution(opts UtilizationOpts) (*UtilizationResult, error) {
	cfg := core.DefaultConfig()
	cfg.Policy = opts.Policy
	sys, err := NewLFS(opts.Capacity, cfg)
	if err != nil {
		return nil, err
	}
	lfs := sys.System.(*core.FS)
	trace, err := workload.Office(sys, opts.Office)
	if err != nil {
		return nil, fmt.Errorf("utilization: office trace: %w", err)
	}
	res := &UtilizationResult{Policy: opts.Policy, Trace: trace, CleanerStats: lfs.Stats()}
	utils := lfs.SegmentUtilizations()
	var sum float64
	for _, u := range utils {
		if u > 1 {
			u = 1
		}
		bin := int(u * 10)
		if bin > 9 {
			bin = 9
		}
		res.Histogram[bin]++
		sum += u
	}
	res.Samples = len(utils)
	if res.Samples > 0 {
		res.MeanSegmentUtil = sum / float64(res.Samples)
	}
	res.DiskUtil = float64(lfs.LiveBytes()) / float64(lfs.LogCapacity())
	return res, audit(lfs, fmt.Sprintf("utilization %v", opts.Policy))
}

// UtilizationByPolicy runs the distribution measurement under both
// cleaning policies on identical traces, exposing how the victim
// policy shapes the residual population (the analysis that led the
// authors' follow-up work to cost-benefit selection and the bimodal
// distribution).
func UtilizationByPolicy(opts UtilizationOpts) ([]*UtilizationResult, error) {
	var out []*UtilizationResult
	for _, p := range []core.CleanPolicy{core.CleanGreedy, core.CleanCostBenefit} {
		opts.Policy = p
		r, err := UtilizationDistribution(opts)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// runUtilization is the table's utilization row.
func runUtilization() (Result, error) {
	byPolicy, err := UtilizationByPolicy(DefaultUtilizationOpts())
	return tabular(byPolicy, err, FormatUtilizationByPolicy, CSVUtilization)
}

// FormatUtilizationByPolicy renders one distribution per policy.
func FormatUtilizationByPolicy(byPolicy []*UtilizationResult) string {
	var b strings.Builder
	for _, r := range byPolicy {
		fmt.Fprintf(&b, "--- %v cleaning ---\n", r.Policy)
		b.WriteString(FormatUtilization(r))
	}
	return b.String()
}

// FormatUtilization renders the distribution.
func FormatUtilization(r *UtilizationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Segment utilization distribution under the office trace (5.3's open question)\n")
	fmt.Fprintf(&b, "trace: %d creates, %d deletes, %d reads, %d overwrites (%v)\n",
		r.Trace.Creates, r.Trace.Deletes, r.Trace.Reads, r.Trace.Overwrites, r.Trace.Elapsed.Duration)
	fmt.Fprintf(&b, "cleaner: %d runs, %d segments reclaimed\n",
		r.CleanerStats.CleanerRuns, r.CleanerStats.SegmentsCleaned)
	fmt.Fprintf(&b, "%-12s %8s\n", "utilization", "segments")
	max := 0
	for _, n := range r.Histogram {
		if n > max {
			max = n
		}
	}
	for i, n := range r.Histogram {
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", n*40/max)
		}
		fmt.Fprintf(&b, "%3d%%-%3d%%    %8d  %s\n", i*10, (i+1)*10, n, bar)
	}
	fmt.Fprintf(&b, "mean segment utilization: %.2f; overall disk utilization: %.2f\n",
		r.MeanSegmentUtil, r.DiskUtil)
	return b.String()
}
