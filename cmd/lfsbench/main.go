// Command lfsbench regenerates every table and figure of the paper's
// evaluation on the simulated testbed (a Sun-4/260-class CPU and a
// WREN IV disk).
//
// Usage:
//
//	lfsbench -experiment <name>     # one experiment
//	lfsbench -experiment all        # everything, in table order
//	lfsbench -h                     # the experiments, one line each
//
// The experiment table below (order) is the only list: -h, the
// -benchjson help and the unknown-name error are all printed from it.
//
// -quick shrinks the workloads by roughly 10x for a fast smoke run.
//
// The trace experiment runs the instrumented small-file + cleaning
// smoke test; -trace exports its full JSONL trace (see cmd/lfstrace)
// and -benchjson writes the headline numbers of the experiments that
// have a committed BENCH_*.json baseline as one JSON object.
//
// -metrics <file> attaches a simulated-clock metrics sampler to every
// LFS any experiment builds and writes the combined time-series JSONL
// (one "fs"-labelled stream per instance) at exit; replay it with
// cmd/lfstop. -metrics-interval sets the sampling spacing in
// simulated time. The metrics experiment is the plane's smoke test.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lfs/internal/experiments"
	"lfs/internal/obs"
	"lfs/internal/sim"
)

func main() {
	exp := flag.String("experiment", "all", "experiment to run: "+strings.Join(experimentNames(false), ", ")+", or all")
	quick := flag.Bool("quick", false, "shrink workloads ~10x for a fast run")
	csvDir := flag.String("csvdir", "", "also write each experiment's rows as <dir>/<experiment>.csv")
	flag.StringVar(&traceOut, "trace", "", "write the trace experiment's JSONL trace to this file")
	flag.StringVar(&benchJSON, "benchjson", "", "write the summary JSON of "+strings.Join(experimentNames(true), ", ")+" to this file")
	metricsOut := flag.String("metrics", "", "sample every LFS's metrics plane and write the combined JSONL time series to this file (replay with lfstop)")
	metricsInterval := flag.Duration("metrics-interval", time.Second, "simulated-time spacing between metrics samples")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintln(w, "\nExperiments:")
		for _, e := range order {
			fmt.Fprintf(w, "  %-19s %s\n", e.name, e.about)
		}
	}
	flag.Parse()
	realStdout = os.Stdout
	if *metricsOut != "" {
		if *metricsInterval <= 0 {
			fmt.Fprintln(os.Stderr, "lfsbench: -metrics-interval must be positive")
			os.Exit(2)
		}
		collector = &metricsCollector{interval: sim.Duration(*metricsInterval)}
		experiments.MetricsSink = collector.sampler
		if *metricsOut == "-" {
			// The JSONL stream owns stdout; experiment reports move
			// to stderr so `lfsbench -metrics - | lfstop` stays clean.
			os.Stdout = os.Stderr
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "lfsbench: %v\n", err)
			os.Exit(1)
		}
		csvOut = *csvDir
	}

	all, ran := *exp == "all", false
	for _, e := range order {
		if !all && *exp != e.name {
			continue
		}
		ran = true
		if all {
			fmt.Printf("=== %s ===\n", e.name)
		}
		if err := e.run(*quick); err != nil {
			fmt.Fprintf(os.Stderr, "lfsbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		if all {
			fmt.Println()
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "lfsbench: unknown experiment %q (valid: %s, all)\n",
			*exp, strings.Join(experimentNames(false), ", "))
		os.Exit(2)
	}
	finishMetrics(*metricsOut)
}

// experiment is one row of the -experiment table.
type experiment struct {
	name  string
	about string
	run   func(quick bool) error
	// benchJSON marks the experiments that honour -benchjson (each has
	// a committed BENCH_*.json baseline that scripts/ci.sh gates).
	benchJSON bool
}

// order is every experiment, in the order "all" runs them.
var order = []experiment{
	{"fig1", "Figures 1-2: creation disk traces", runFig1, false},
	{"fig3", "Figure 3: small-file I/O", runFig3, false},
	{"fig4", "Figure 4: large-file I/O", runFig4, false},
	{"fig5", "Figure 5: cleaning rate vs utilization", runFig5, false},
	{"scaling", "§3.1: CPU scaling of create/delete", runScaling, false},
	{"recovery", "§4.4: crash recovery time", runRecovery, false},
	{"ablation-segsize", "segment size sweep", runAblationSegSize, false},
	{"ablation-ckpt", "checkpoint interval: overhead vs vulnerability window", runAblationCkpt, false},
	{"ablation-blocksize", "block size on the small-file workload", runAblationBlockSize, false},
	{"utilization", "segment utilization distribution under an office trace", runUtilization, false},
	{"cleaning-curve", "write cost vs utilization: greedy, cost-benefit, +segregation", runCleaningCurve, true},
	{"trace", "instrumented small-file + cleaning smoke (-trace exports the JSONL)", runTrace, true},
	{"concurrency", "multi-client throughput: LFS group commit on/off vs FFS", runConcurrency, true},
	{"critpath", "fsync latency by phase across client counts", runCritPath, true},
	{"sharding", "multi-log scale-out: ops/s vs shard count, one-shard crash", runSharding, true},
	{"metrics", "metrics-plane smoke: final sample equals the aggregates", runMetrics, true},
	{"crashsweep", "crash-point sweep: snapshot vs replay", runCrashSweep, true},
}

// experimentNames lists the table's names in order; benchOnly keeps
// those that honour -benchjson.
func experimentNames(benchOnly bool) []string {
	var names []string
	for _, e := range order {
		if e.benchJSON || !benchOnly {
			names = append(names, e.name)
		}
	}
	return names
}

// collector gathers one labelled sampler per LFS instance when
// -metrics is on.
var collector *metricsCollector

// realStdout is the process stdout saved before any `-metrics -`
// redirection, so the JSONL stream reaches the pipe.
var realStdout *os.File

// metricsCollector hands fresh samplers to experiments.MetricsSink
// and remembers them for the combined JSONL export.
type metricsCollector struct {
	interval sim.Duration
	samplers []*obs.Sampler
}

// sampler returns a fresh sampler labelled <name>-<n> so the streams
// of a sweep's instances stay distinguishable in one file.
func (c *metricsCollector) sampler(name string) *obs.Sampler {
	s := obs.NewSampler(c.interval)
	s.SetLabel(fmt.Sprintf("%s-%d", strings.ToLower(name), len(c.samplers)))
	c.samplers = append(c.samplers, s)
	return s
}

// write concatenates every sampler's JSONL stream into path; "-"
// streams to stdout (for piping into lfstop) with the status line on
// stderr.
func (c *metricsCollector) write(path string) error {
	out := io.Writer(realStdout)
	status := io.Writer(os.Stderr)
	var f *os.File
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			return err
		}
		out = f
		status = os.Stdout
	}
	var n int
	for _, s := range c.samplers {
		if err := s.WriteJSONL(out); err != nil {
			if f != nil {
				f.Close()
			}
			return err
		}
		n += len(s.Samples())
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(status, "metrics: %d samples from %d instances -> %s\n", n, len(c.samplers), path)
	return nil
}

// finishMetrics writes the collected metrics file, if enabled.
func finishMetrics(path string) {
	if collector == nil || path == "" {
		return
	}
	if err := collector.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "lfsbench: writing metrics: %v\n", err)
		os.Exit(1)
	}
}

// csvOut, when non-empty, is the directory experiments write CSVs to.
var csvOut string

// csvFile opens <csvOut>/<name>.csv, or returns nil when CSV output
// is off.
func csvFile(name string) (*os.File, error) {
	if csvOut == "" {
		return nil, nil
	}
	return os.Create(csvOut + "/" + name + ".csv")
}

// emitCSV runs write against the experiment's CSV file if enabled.
func emitCSV(name string, write func(f *os.File) error) error {
	f, err := csvFile(name)
	if err != nil || f == nil {
		return err
	}
	defer f.Close()
	return write(f)
}

func runFig1(bool) error {
	res, err := experiments.Fig1(64 << 20)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runFig3(quick bool) error {
	opts := experiments.DefaultFig3Opts()
	if quick {
		opts.Capacity = 64 << 20
		opts.Files1K = 1000
		opts.Files10K = 100
	}
	rows, err := experiments.Fig3(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFig3(rows))
	return emitCSV("fig3", func(f *os.File) error { return experiments.CSVFig3(f, rows) })
}

func runFig4(quick bool) error {
	opts := experiments.DefaultFig4Opts()
	if quick {
		opts.Capacity = 64 << 20
		opts.FileSize = 16 << 20
	}
	rows, err := experiments.Fig4(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFig4(rows))
	return emitCSV("fig4", func(f *os.File) error { return experiments.CSVFig4(f, rows) })
}

func runFig5(quick bool) error {
	opts := experiments.DefaultFig5Opts()
	if quick {
		opts.Capacity = 32 << 20
		opts.NumFiles = 4000
		opts.Utilizations = []float64{0, 0.25, 0.5, 0.75, 0.9}
	}
	rows, err := experiments.Fig5(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFig5(rows))
	return emitCSV("fig5", func(f *os.File) error { return experiments.CSVFig5(f, rows) })
}

func runScaling(quick bool) error {
	opts := experiments.DefaultScalingOpts()
	if quick {
		opts.Files = 50
	}
	rows, err := experiments.Scaling(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatScaling(rows))
	return emitCSV("scaling", func(f *os.File) error { return experiments.CSVScaling(f, rows) })
}

func runRecovery(quick bool) error {
	opts := experiments.DefaultRecoveryOpts()
	if quick {
		opts.Capacities = []int64{32 << 20, 64 << 20}
		opts.Files = 100
	}
	rows, err := experiments.Recovery(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatRecovery(rows))
	return emitCSV("recovery", func(f *os.File) error { return experiments.CSVRecovery(f, rows) })
}

func runAblationSegSize(quick bool) error {
	opts := experiments.DefaultSegSizeOpts()
	if quick {
		opts.Files = 500
	}
	rows, err := experiments.SegSizeAblation(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatSegSize(rows))
	return emitCSV("ablation-segsize", func(f *os.File) error { return experiments.CSVSegSize(f, rows) })
}

func runUtilization(quick bool) error {
	opts := experiments.DefaultUtilizationOpts()
	if quick {
		opts.Capacity = 32 << 20
		opts.Office.Ops = 15000
		opts.Office.TargetFiles = 1200
		opts.Office.MeanLifetimeOps = 4000
	}
	greedy, costBenefit, err := experiments.UtilizationByPolicy(opts)
	if err != nil {
		return err
	}
	fmt.Println("--- greedy cleaning ---")
	fmt.Print(experiments.FormatUtilization(greedy))
	fmt.Println("--- cost-benefit cleaning ---")
	fmt.Print(experiments.FormatUtilization(costBenefit))
	return emitCSV("utilization", func(f *os.File) error {
		if err := experiments.CSVUtilization(f, greedy, "greedy"); err != nil {
			return err
		}
		return experiments.CSVUtilization(f, costBenefit, "cost-benefit")
	})
}

func runAblationCkpt(quick bool) error {
	opts := experiments.DefaultCkptOpts()
	if quick {
		opts.Capacity = 32 << 20
		opts.Office.Ops = 3000
		opts.Office.TargetFiles = 800
		opts.Office.MeanLifetimeOps = 1000
	}
	rows, err := experiments.CheckpointAblation(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatCkpt(rows))
	return emitCSV("ablation-ckpt", func(f *os.File) error { return experiments.CSVCkpt(f, rows) })
}

func runCleaningCurve(quick bool) error {
	opts := experiments.DefaultCleaningOpts()
	if quick {
		// Keep the top setpoints — the 0.80 headline must survive the
		// smoke run — and shrink the volume and churn instead.
		opts.Capacity = 24 << 20
		opts.OverwritesPerFile = 2
		opts.Utilizations = []float64{0.55, 0.75, 0.80}
	}
	rows, err := experiments.CleaningCurve(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatCleaning(rows))
	if benchJSON != "" {
		summary := map[string]any{"experiment": "cleaning-curve"}
		for _, arm := range []struct{ name, key string }{
			{"greedy", "greedy"},
			{"cost-benefit", "costbenefit"},
			{"cost-benefit+seg", "costbenefit_seg"},
		} {
			r, ok := experiments.CleaningAt(rows, arm.name, 0.80)
			if !ok {
				return fmt.Errorf("cleaning-curve: no %s row at utilization 0.80", arm.name)
			}
			summary[arm.key+"_write_cost_u80"] = r.WriteCost
			summary[arm.key+"_write_amp_u80"] = r.WriteAmp
			summary[arm.key+"_segments_cleaned_u80"] = r.SegmentsCleaned
		}
		if err := writeBenchJSON(benchJSON, summary); err != nil {
			return err
		}
	}
	return emitCSV("cleaning-curve", func(f *os.File) error { return experiments.CSVCleaning(f, rows) })
}

// traceOut and benchJSON, when non-empty, are the output paths of the
// trace experiment's JSONL export and JSON summary.
var traceOut, benchJSON string

func runTrace(quick bool) error {
	opts := experiments.DefaultTraceSmokeOpts()
	if quick {
		opts.NumFiles = 500
		opts.ChurnFiles = 1500
		opts.CleanSegments = 6
	}
	rec := obs.NewRecorder()
	opts.Trace = rec
	r, err := experiments.TraceSmoke(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatTraceSmoke(r))
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := rec.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans, %d disk events, %d cleans -> %s\n",
			len(rec.Spans()), len(rec.Events()), len(rec.Cleans()), traceOut)
	}
	if benchJSON != "" {
		summary := map[string]any{
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
		}
		if err := writeBenchJSON(benchJSON, summary); err != nil {
			return err
		}
	}
	return nil
}

func runConcurrency(quick bool) error {
	opts := experiments.DefaultConcurrencyOpts()
	if quick {
		opts.Capacity = 64 << 20
		opts.ClientCounts = []int{1, 4, 8}
		opts.OpsPerClient = 32
	}
	rows, err := experiments.Concurrency(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatConcurrency(rows))
	if benchJSON != "" {
		type point struct {
			Clients          int     `json:"clients"`
			LFSOpsPerSec     float64 `json:"lfs_ops_per_s"`
			LFSNoGCOpsPerSec float64 `json:"lfs_nogc_ops_per_s"`
			FFSOpsPerSec     float64 `json:"ffs_ops_per_s"`
			GroupCommits     int64   `json:"group_commits"`
			Piggybacked      int64   `json:"piggybacked"`
			LFSWritesPerOp   float64 `json:"lfs_writes_per_op"`
			FFSWritesPerOp   float64 `json:"ffs_writes_per_op"`
			LFSP50Ms         float64 `json:"lfs_p50_ms"`
			LFSP95Ms         float64 `json:"lfs_p95_ms"`
			LFSP99Ms         float64 `json:"lfs_p99_ms"`
		}
		curve := make([]point, len(rows))
		for i, r := range rows {
			curve[i] = point{r.Clients, r.LFSOpsPerSec, r.LFSNoGCOpsPerSec,
				r.FFSOpsPerSec, r.GroupCommits, r.Piggybacked,
				r.LFSWritesPerOp, r.FFSWritesPerOp,
				r.LFSP50.Seconds() * 1000, r.LFSP95.Seconds() * 1000,
				r.LFSP99.Seconds() * 1000}
		}
		summary := map[string]any{"experiment": "concurrency", "curve": curve}
		if err := writeBenchJSON(benchJSON, summary); err != nil {
			return err
		}
	}
	return emitCSV("concurrency", func(f *os.File) error { return experiments.CSVConcurrency(f, rows) })
}

func runCritPath(quick bool) error {
	opts := experiments.DefaultCritPathOpts()
	if quick {
		opts.Capacity = 64 << 20
		opts.ClientCounts = []int{1, 4, 8}
		opts.OpsPerClient = 32
	}
	rows, err := experiments.CritPath(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatCritPath(rows))
	if benchJSON != "" {
		curve := make([]map[string]any, len(rows))
		for i, r := range rows {
			p := map[string]any{
				"clients":         r.Clients,
				"fsyncs":          r.FsyncCount,
				"mean_ms":         r.MeanLatency().Seconds() * 1000,
				"p50_ms":          r.P50.Seconds() * 1000,
				"p95_ms":          r.P95.Seconds() * 1000,
				"top_blame":       r.TopBlame.String(),
				"top_blame_share": r.TopBlameShare,
			}
			for k := obs.PhaseKind(0); k < obs.NumPhaseKinds; k++ {
				p["mean_"+k.String()+"_ms"] = r.MeanPhase[k].Seconds() * 1000
			}
			curve[i] = p
		}
		// Exactness is a verdict: every span decomposed exactly, or
		// CritPath itself would have failed. Recorded as 0/1 so the
		// benchdiff gate pins it.
		summary := map[string]any{
			"experiment": "critpath",
			"curve":      curve,
			"exact":      1,
		}
		if err := writeBenchJSON(benchJSON, summary); err != nil {
			return err
		}
	}
	return nil
}

func runMetrics(quick bool) error {
	opts := experiments.DefaultMetricsSmokeOpts()
	if quick {
		opts.NumFiles = 500
		opts.ChurnFiles = 1500
		opts.CleanSegments = 6
	}
	r, err := experiments.MetricsSmoke(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatMetricsSmoke(r))
	if benchJSON != "" {
		summary := map[string]any{
			"experiment":             "metrics",
			"samples":                r.Samples,
			"series":                 r.Series,
			"elapsed_s":              r.Elapsed.Seconds(),
			"final_ops":              r.FinalOps,
			"final_blocks_written":   r.FinalBlocksWritten,
			"final_segments_cleaned": r.FinalSegmentsCleaned,
			"final_write_cost":       r.FinalWriteCost,
			"final_clean_segments":   r.FinalCleanSegs,
		}
		if err := writeBenchJSON(benchJSON, summary); err != nil {
			return err
		}
	}
	return nil
}

func runSharding(quick bool) error {
	opts := experiments.DefaultShardingOpts()
	if quick {
		opts = experiments.QuickShardingOpts()
	}
	res, err := experiments.Sharding(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatSharding(res))
	// The crash scenario fails the experiment itself on data loss or a
	// dirty fsck; determinism is a verdict, so enforce it here.
	if !res.Deterministic {
		return fmt.Errorf("sharding: same-seed rerun produced different shard images")
	}
	if benchJSON != "" {
		type point struct {
			Shards      int     `json:"shards"`
			Clients     int     `json:"clients"`
			OpsPerSec   float64 `json:"ops_per_s"`
			Speedup     float64 `json:"speedup"`
			WritesPerOp float64 `json:"writes_per_op"`
			P50Ms       float64 `json:"p50_ms"`
			P95Ms       float64 `json:"p95_ms"`
			P99Ms       float64 `json:"p99_ms"`
		}
		curve := make([]point, len(res.Rows))
		for i, r := range res.Rows {
			curve[i] = point{r.Shards, r.Clients, r.OpsPerSec, r.Speedup,
				r.WritesPerOp, r.P50.Seconds() * 1000,
				r.P95.Seconds() * 1000, r.P99.Seconds() * 1000}
		}
		// Booleans don't register with benchdiff's numeric gate, so the
		// two verdicts are recorded as 0/1 counters.
		det, fsck := 0, 0
		if res.Deterministic {
			det = 1
		}
		if res.Crash.FsckOk {
			fsck = 1
		}
		summary := map[string]any{
			"experiment":             "sharding",
			"curve":                  curve,
			"speedup_at_max":         res.Rows[len(res.Rows)-1].Speedup,
			"deterministic":          det,
			"crash_tolerated_errors": res.Crash.ToleratedErrors,
			"crash_healthy_ops":      res.Crash.HealthyOps,
			"crash_files_retained":   res.Crash.FilesRetained,
			"crash_fsck_ok":          fsck,
		}
		if err := writeBenchJSON(benchJSON, summary); err != nil {
			return err
		}
	}
	return emitCSV("sharding", func(f *os.File) error { return experiments.CSVSharding(f, res) })
}

func runAblationBlockSize(quick bool) error {
	opts := experiments.DefaultBlockSizeOpts()
	if quick {
		opts.Capacity = 32 << 20
		opts.Files = 1000
	}
	rows, err := experiments.BlockSizeAblation(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatBlockSize(rows))
	return emitCSV("ablation-blocksize", func(f *os.File) error { return experiments.CSVBlockSize(f, rows) })
}
