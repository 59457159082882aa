// Command lfstop replays a metrics JSONL time series (written by
// lfsbench -metrics, see FORMAT.md "Metrics JSONL") into an ASCII
// dashboard: one sparkline per series plus a final/min/max table, and
// the final segment-utilization histogram. It answers "what did the
// run look like over time" after the fact, from the recorded samples
// alone — it never touches a simulated clock or a file system.
//
// The per-shard streams of a sharded run (labels shard-0, shard-1,
// ...) collapse into one summary table — one row per shard with its
// ops, peak ops/s, peak queue depth, and cleaner debt — instead of
// interleaving N full dashboards; `-fs shard-K` still opens one
// shard's full view.
//
// Usage:
//
//	lfstop run.metrics.jsonl
//	lfsbench -experiment concurrency -metrics - | lfstop
//	lfstop -series disk.queue.depth,seg.clean -fs lfs-0 run.metrics.jsonl
//	lfstop -fs shard-2 sharding.metrics.jsonl
//	lfstop -list run.metrics.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"lfs/internal/obs"
	"lfs/internal/sim"
)

func main() {
	series := flag.String("series", "", "comma-separated series names to show (default: all)")
	fsLabel := flag.String("fs", "", "only show this instance label (default: all)")
	width := flag.Int("width", 64, "sparkline width in characters")
	list := flag.Bool("list", false, "list instance labels and series names, then exit")
	flag.Parse()
	if *width < 8 {
		fmt.Fprintln(os.Stderr, "lfstop: -width must be at least 8")
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "lfstop: at most one input file")
		os.Exit(2)
	}
	if flag.NArg() == 1 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfstop: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	st, err := obs.ReadJSONL(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfstop: %v\n", err)
		os.Exit(1)
	}
	samples := st.Samples
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "lfstop: no metrics samples in input")
		os.Exit(1)
	}

	opts := dashOpts{Width: *width, FS: *fsLabel, List: *list}
	if *series != "" {
		opts.Series = strings.Split(*series, ",")
	}
	out, err := buildDashboard(samples, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfstop: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(out)
}

// dashOpts shapes the dashboard.
type dashOpts struct {
	// Width is the sparkline width in characters.
	Width int
	// Series, when non-empty, restricts the rows to these names.
	Series []string
	// FS, when non-empty, restricts the output to one instance label.
	FS string
	// List replaces the dashboard with a label/series inventory.
	List bool
}

// sparkRunes is the eight-level sparkline alphabet, lowest first.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// buildDashboard renders the dashboard for the given samples. Pure:
// its output is a function of the samples and options alone, so the
// replay tests compare it against end-of-run aggregates directly.
func buildDashboard(samples []obs.Sample, opts dashOpts) (string, error) {
	groups, labels := groupByFS(samples)
	if opts.FS != "" {
		if _, ok := groups[opts.FS]; !ok {
			return "", fmt.Errorf("no instance labelled %q (have: %s)",
				opts.FS, strings.Join(labels, ", "))
		}
		labels = []string{opts.FS}
	}

	var b strings.Builder
	if opts.List {
		for _, label := range labels {
			fmt.Fprintf(&b, "%s: %d samples\n", displayLabel(label), len(groups[label]))
			for _, name := range obs.SeriesNames(groups[label]) {
				fmt.Fprintf(&b, "  %s\n", name)
			}
		}
		return b.String(), nil
	}

	if opts.FS == "" && len(opts.Series) == 0 {
		labels = renderShardSummary(&b, groups, labels)
	}
	for _, label := range labels {
		ss := groups[label]
		if err := renderInstance(&b, displayLabel(label), ss, opts); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// shardIndex extracts N from a shard-N instance label (the streams
// the sharding experiment emits); ok is false for any other label.
func shardIndex(label string) (int, bool) {
	rest, found := strings.CutPrefix(label, "shard-")
	if !found || rest == "" {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// renderShardSummary collapses shard-N-labelled instances into one
// table — one row per shard, in shard order — and returns the labels
// that still need the full per-instance rendering. With fewer than
// two shard streams there is nothing to collapse and the labels pass
// through untouched.
func renderShardSummary(b *strings.Builder, groups map[string][]obs.Sample, labels []string) []string {
	type shardRow struct {
		n     int
		label string
	}
	var shards []shardRow
	var rest []string
	for _, l := range labels {
		if n, ok := shardIndex(l); ok {
			shards = append(shards, shardRow{n, l})
		} else {
			rest = append(rest, l)
		}
	}
	if len(shards) < 2 {
		return labels
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].n < shards[j].n })
	fmt.Fprintf(b, "=== shards: %d instances, one row per shard (-fs shard-K for the full view) ===\n",
		len(shards))
	fmt.Fprintf(b, "%8s %8s %10s %12s %12s %12s %16s\n",
		"shard", "samples", "ops", "peak ops/s", "peak qdepth", "clean.debt", "top fsync phase")
	for _, s := range shards {
		ss := groups[s.label]
		ops := seriesValues(ss, "ops")
		_, peakRate := minMax(seriesValues(ss, "ops.rate"))
		_, peakDepth := minMax(seriesValues(ss, "disk.queue.depth"))
		debt := seriesValues(ss, "cleaner.debt_segments")
		fmt.Fprintf(b, "%8d %8d %10s %12s %12s %12s %16s\n",
			s.n, len(ss), fnum(ops[len(ops)-1]), fnum(peakRate),
			fnum(peakDepth), fnum(debt[len(debt)-1]), topFsyncPhase(ss))
	}
	return rest
}

// topFsyncPhase names the phase with the largest peak fsync p95
// across the shard's op.fsync.phase.<kind>.p95 series — the one-glance
// answer to "what is this shard's fsync tail waiting on". "-" when
// the stream predates phase metrics or no fsync ever waited.
func topFsyncPhase(ss []obs.Sample) string {
	top, best := "-", 0.0
	for k := obs.PhaseKind(0); k < obs.NumPhaseKinds; k++ {
		_, peak := minMax(seriesValues(ss, "op.fsync.phase."+k.String()+".p95"))
		if peak > best {
			top, best = k.String(), peak
		}
	}
	return top
}

// groupByFS splits samples by instance label, preserving sample order
// inside a group and first-appearance order across groups.
func groupByFS(samples []obs.Sample) (map[string][]obs.Sample, []string) {
	groups := make(map[string][]obs.Sample)
	var labels []string
	for _, sm := range samples {
		if _, ok := groups[sm.FS]; !ok {
			labels = append(labels, sm.FS)
		}
		groups[sm.FS] = append(groups[sm.FS], sm)
	}
	return groups, labels
}

// displayLabel names an instance in the output; an empty wire label
// (a single unlabelled sampler) renders as "(unlabelled)".
func displayLabel(label string) string {
	if label == "" {
		return "(unlabelled)"
	}
	return label
}

// renderInstance renders one instance's header, series rows, and
// final utilization histogram.
func renderInstance(b *strings.Builder, label string, ss []obs.Sample, opts dashOpts) error {
	first, last := ss[0], ss[len(ss)-1]
	span := sim.Time(last.Time).Sub(sim.Time(first.Time))
	fmt.Fprintf(b, "=== %s: %d samples over %v (t=%v..%v) ===\n",
		label, len(ss), span, sim.Time(first.Time), sim.Time(last.Time))

	names := obs.SeriesNames(ss)
	if len(opts.Series) > 0 {
		names = filterNames(names, opts.Series)
		if len(names) == 0 {
			return fmt.Errorf("none of the requested series exist in %s", label)
		}
	}
	nameW := 0
	for _, n := range names {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	for _, name := range names {
		vals := seriesValues(ss, name)
		lo, hi := minMax(vals)
		fmt.Fprintf(b, "%-*s %s final %s min %s max %s\n",
			nameW, name, sparkline(vals, opts.Width),
			fnum(vals[len(vals)-1]), fnum(lo), fnum(hi))
	}
	if h, ok := last.Hists["seg.util"]; ok && len(opts.Series) == 0 {
		fmt.Fprintf(b, "%-*s %v\n", nameW, "seg.util (final)", h)
	}
	return nil
}

// filterNames keeps the names present in the requested list.
func filterNames(names, want []string) []string {
	keep := make(map[string]bool, len(want))
	for _, w := range want {
		keep[strings.TrimSpace(w)] = true
	}
	var out []string
	for _, n := range names {
		if keep[n] {
			out = append(out, n)
		}
	}
	return out
}

// seriesValues extracts one series across samples; a sample missing
// the series contributes its zero value.
func seriesValues(ss []obs.Sample, name string) []float64 {
	out := make([]float64, len(ss))
	for i, sm := range ss {
		if v, ok := sm.Counters[name]; ok {
			out[i] = float64(v)
		} else {
			out[i] = sm.Gauges[name]
		}
	}
	return out
}

// minMax returns the extrema of vals (which is never empty).
func minMax(vals []float64) (lo, hi float64) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// sparkline renders vals as width sparkline characters, min-max
// scaled per series; longer series are downsampled by bucket mean.
func sparkline(vals []float64, width int) string {
	vals = downsample(vals, width)
	lo, hi := minMax(vals)
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// downsample reduces vals to at most width points by averaging
// equal-size buckets (the last bucket may be short).
func downsample(vals []float64, width int) []float64 {
	if len(vals) <= width {
		return vals
	}
	out := make([]float64, width)
	for i := 0; i < width; i++ {
		start := i * len(vals) / width
		end := (i + 1) * len(vals) / width
		if end <= start {
			end = start + 1
		}
		var sum float64
		for _, v := range vals[start:end] {
			sum += v
		}
		out[i] = sum / float64(end-start)
	}
	return out
}

// fnum formats a value compactly: integers without decimals, others
// with up to four significant digits.
func fnum(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
