// Command lfsbench regenerates every table and figure of the paper's
// evaluation on the simulated testbed (a Sun-4/260-class CPU and a
// WREN IV disk), at the paper's scale.
//
// Usage:
//
//	lfsbench -experiment <name>     # one experiment
//	lfsbench -experiment all        # everything, in table order
//	lfsbench -h                     # the experiments, one line each
//
// The experiments are the rows of experiments.Table, which is the only
// list: -h, the flag help and the unknown-name error are printed from
// it, and this command is one loop over it. Each row's report goes to
// stdout — byte-identical from run to run, so `-experiment all` is
// diffed against the committed bench_results.txt — and the flags below
// choose which of its other outputs are kept; every status line goes to
// stderr.
//
// -csvdir <dir> writes the rows of each experiment that has them as
// <dir>/<experiment>.csv. -benchdir <dir> writes the summary of each
// experiment that has a committed baseline as <dir>/BENCH_<name>.json,
// the file scripts/ci.sh gates. -trace <file> exports the trace
// experiment's full JSONL trace (see cmd/lfstrace).
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
	"path/filepath"
	"strings"
	"time"

	"lfs/internal/experiments"
	"lfs/internal/obs"
	"lfs/internal/sim"
)

func main() {
	var names, benched []string
	for _, e := range experiments.Table {
		names = append(names, e.Name)
		if e.Bench != "" {
			benched = append(benched, e.Name)
		}
	}
	exp := flag.String("experiment", "all", "experiment to run: "+strings.Join(names, ", ")+", or all")
	csvDir := flag.String("csvdir", "", "also write each experiment's rows as <dir>/<experiment>.csv")
	benchDir := flag.String("benchdir", "", "write the BENCH_<name>.json summaries of "+strings.Join(benched, ", ")+" into this directory")
	traceOut := flag.String("trace", "", "write the trace experiment's JSONL trace to this file")
	metricsOut := flag.String("metrics", "", "sample every LFS's metrics plane and write the combined JSONL time series to this file (replay with lfstop)")
	metricsInterval := flag.Duration("metrics-interval", time.Second, "simulated-time spacing between metrics samples")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintln(w, "\nExperiments:")
		for _, e := range experiments.Table {
			fmt.Fprintf(w, "  %-19s %s\n", e.Name, e.About)
		}
	}
	flag.Parse()
	all := *exp == "all"
	var rows []experiments.Experiment
	for _, e := range experiments.Table {
		if all || *exp == e.Name {
			rows = append(rows, e)
		}
	}
	if len(rows) == 0 {
		fmt.Fprintf(os.Stderr, "lfsbench: unknown experiment %q (valid: %s, all)\n",
			*exp, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *metricsOut != "" && *metricsInterval <= 0 {
		fmt.Fprintln(os.Stderr, "lfsbench: -metrics-interval must be positive")
		os.Exit(2)
	}
	for _, dir := range []string{*csvDir, *benchDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
	}

	// run is the whole command: each chosen row's report to stdout, its
	// other outputs where the flags ask for them, and — when metrics is
	// non-nil — the metrics streams of the file systems it built.
	run := func(metrics io.Writer) error {
		var collector *metricsCollector
		if metrics != nil {
			collector = &metricsCollector{interval: sim.Duration(*metricsInterval), out: metrics}
			experiments.MetricsSink = collector.sampler
		}
		for _, e := range rows {
			if all {
				fmt.Printf("=== %s ===\n", e.Name)
			}
			// A failed verdict still has a report (which crash points
			// failed, the curve whose rerun diverged): print it first.
			res, err := e.Run()
			fmt.Print(res.Text)
			if err == nil && *csvDir != "" && res.CSV != nil {
				err = writeFile(filepath.Join(*csvDir, e.Name+".csv"), res.CSV)
			}
			if err == nil && *benchDir != "" && res.Bench != nil {
				err = writeFile(filepath.Join(*benchDir, "BENCH_"+e.Bench+".json"),
					func(w io.Writer) error { return experiments.WriteBench(w, res.Bench) })
			}
			if err == nil && *traceOut != "" && res.Trace != nil {
				if err = writeFile(*traceOut, res.Trace.WriteJSONL); err == nil {
					fmt.Fprintf(os.Stderr, "trace: %d spans, %d disk events, %d cleans -> %s\n",
						len(res.Trace.Spans()), len(res.Trace.Events()), len(res.Trace.Cleans()), *traceOut)
				}
			}
			if err == nil && collector != nil {
				err = collector.flush()
			}
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			if all {
				fmt.Println()
			}
		}
		if collector != nil {
			fmt.Fprintf(os.Stderr, "metrics: %d samples from %d instances -> %s\n",
				collector.samples, collector.instances, *metricsOut)
		}
		return nil
	}
	var err error
	switch *metricsOut {
	case "":
		err = run(nil)
	case "-":
		// The JSONL stream owns stdout; experiment reports move to
		// stderr so `lfsbench -metrics - | lfstop` stays clean.
		stdout := os.Stdout
		os.Stdout = os.Stderr
		err = run(stdout)
	default:
		err = writeFile(*metricsOut, run)
	}
	if err != nil {
		fatal(err)
	}
}

// fatal reports err and exits 1.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lfsbench: %v\n", err)
	os.Exit(1)
}

// writeFile creates path, runs write against it and closes it,
// reporting the first error: every file this command writes — CSV,
// bench summary, trace, metrics — is complete on disk or the run fails.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metricsCollector hands fresh samplers to experiments.MetricsSink
// when -metrics is on and writes their streams out as one JSONL.
type metricsCollector struct {
	interval sim.Duration
	out      io.Writer
	// pending are the samplers handed out since the last flush;
	// instances and samples count everything handed out and written.
	pending            []*obs.Sampler
	instances, samples int
}

// sampler returns a fresh sampler labelled <name>-<n> so the streams
// of a sweep's instances stay distinguishable in one file.
func (c *metricsCollector) sampler(name string) *obs.Sampler {
	s := obs.NewSampler(c.interval)
	s.SetLabel(fmt.Sprintf("%s-%d", strings.ToLower(name), c.instances))
	c.instances++
	c.pending = append(c.pending, s)
	return s
}

// flush appends the pending samplers' streams to the output and lets
// go of them. It runs after every experiment, not once at exit: a
// sampler's registry pins the file system it sampled, disk image
// included, and `-experiment all` builds over a hundred of them (7 GB
// resident when they were all held to the end).
func (c *metricsCollector) flush() error {
	for _, s := range c.pending {
		if err := s.WriteJSONL(c.out); err != nil {
			return err
		}
		c.samples += len(s.Samples())
	}
	c.pending = nil
	return nil
}
