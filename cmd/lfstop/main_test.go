package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/obs"
	"lfs/internal/server"
	"lfs/internal/sim"
)

// fixture returns two instances' worth of samples.
func fixture() []obs.Sample {
	mk := func(fs string, t, seq int64, depth float64, clean float64) obs.Sample {
		return obs.Sample{
			Type: "metrics", V: obs.MetricsSchemaVersion, FS: fs, Time: t, Seq: seq,
			Counters: map[string]int64{"ops": seq * 10},
			Gauges:   map[string]float64{"disk.queue.depth": depth, "seg.clean": clean},
			Hists: map[string]obs.Histogram{"seg.util": {
				Bounds: []float64{0.5}, Counts: []int64{int64(seq), 2},
			}},
		}
	}
	return []obs.Sample{
		mk("lfs-0", 0, 0, 0, 60),
		mk("lfs-0", 1e9, 1, 3, 58),
		mk("lfs-0", 2e9, 2, 1, 59),
		mk("lfs-1", 0, 0, 0, 60),
		mk("lfs-1", 1e9, 1, 7, 50),
	}
}

func TestDashboardRendersSeries(t *testing.T) {
	out, err := buildDashboard(fixture(), dashOpts{Width: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"=== lfs-0: 3 samples over 2s",
		"=== lfs-1: 2 samples over 1s",
		"disk.queue.depth",
		"seg.clean",
		"ops",
		"final 20", // lfs-0 ops counter ends at 20
		"final 7",  // lfs-1 queue depth ends at 7
		"seg.util (final)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}
	// Sparkline shape: lfs-0 queue depth 0,3,1 → low, high, middle.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "disk.queue.depth") && strings.Contains(line, "final 1 ") {
			if !strings.Contains(line, "▁█") {
				t.Errorf("queue-depth sparkline shape wrong: %q", line)
			}
		}
	}
}

func TestDashboardFilters(t *testing.T) {
	out, err := buildDashboard(fixture(), dashOpts{Width: 16, FS: "lfs-1", Series: []string{"seg.clean"}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "lfs-0") || strings.Contains(out, "disk.queue.depth") {
		t.Errorf("filters not applied:\n%s", out)
	}
	if !strings.Contains(out, "seg.clean") || !strings.Contains(out, "final 50") {
		t.Errorf("filtered output wrong:\n%s", out)
	}

	if _, err := buildDashboard(fixture(), dashOpts{Width: 16, FS: "nope"}); err == nil {
		t.Error("unknown -fs label accepted")
	}
	if _, err := buildDashboard(fixture(), dashOpts{Width: 16, Series: []string{"nope"}}); err == nil {
		t.Error("unknown -series name accepted")
	}
}

func TestDashboardList(t *testing.T) {
	out, err := buildDashboard(fixture(), dashOpts{Width: 16, List: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "lfs-0: 3 samples") || !strings.Contains(out, "  seg.clean") {
		t.Errorf("list output wrong:\n%s", out)
	}
}

func TestDownsample(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	got := downsample(vals, 10)
	if len(got) != 10 {
		t.Fatalf("downsample kept %d points, want 10", len(got))
	}
	// Bucket means of 0..99 in tens: 4.5, 14.5, ...
	if got[0] != 4.5 || got[9] != 94.5 {
		t.Errorf("bucket means %v wrong", got)
	}
	short := []float64{1, 2}
	if len(downsample(short, 10)) != 2 {
		t.Error("short series must pass through unchanged")
	}
}

// TestDashboardReplaysConcurrentRun is the end-to-end replay golden
// test: a multi-client group-commit run sampled on the event loop,
// replayed through the dashboard, must render the queue-depth and
// utilization series with final values exactly equal to the
// end-of-run aggregates.
func TestDashboardReplaysConcurrentRun(t *testing.T) {
	samp, rec := obs.NewSampler(10*sim.Millisecond), obs.NewRecorder()
	cfg := core.DefaultConfig()
	cfg.GroupCommit = true
	cfg.Metrics, cfg.Trace = samp, rec
	d := disk.NewMem(64<<20, sim.NewClock())
	if err := core.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := server.Run(fs, server.Config{
		Clients: 8, OpsPerClient: 32, WriteSize: 4096,
		FilesPerClient: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs.SampleMetricsNow()
	samples := samp.Samples()
	if len(samples) < 3 {
		t.Fatalf("run produced %d samples; replay is vacuous", len(samples))
	}

	out, err := buildDashboard(samples, dashOpts{Width: 32})
	if err != nil {
		t.Fatal(err)
	}

	// The final rendered values equal the live end-of-run aggregates.
	snap := fs.StatsSnapshot()
	finals := map[string]string{
		"disk.queue.max":     fnum(float64(d.MaxQueueDepth())),
		"seg.clean":          fnum(float64(snap.CleanSegments)),
		"log.group_commits":  fnum(float64(snap.Log.GroupCommits)),
		"log.blocks_written": fnum(float64(snap.Log.BlocksWritten)),
	}
	for series, want := range finals {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, series+" ") &&
				strings.Contains(line, fmt.Sprintf("final %s min", want)) {
				found = true
			}
		}
		if !found {
			t.Errorf("dashboard missing %q with final %s:\n%s", series, want, out)
		}
	}
	if !strings.Contains(out, "disk.queue.depth") {
		t.Errorf("dashboard missing queue-depth series:\n%s", out)
	}

	// The rendered final utilization histogram is the real final one.
	wantHist := fmt.Sprintf("%v", samples[len(samples)-1].Hists["seg.util"])
	if !strings.Contains(out, wantHist) {
		t.Errorf("dashboard utilization histogram missing %q:\n%s", wantHist, out)
	}
	if res.Ops != int64(8*32) {
		t.Errorf("run completed %d ops, want %d", res.Ops, 8*32)
	}

	// FORMAT.md lets the trace share the file: on trace+metrics the
	// dashboard equals the one on the metrics alone.
	var trace, metrics bytes.Buffer
	if err := rec.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if err := samp.WriteJSONL(&metrics); err != nil {
		t.Fatal(err)
	}
	replay := func(in []byte) string {
		st, err := obs.ReadJSONL(bytes.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		out, err := buildDashboard(st.Samples, dashOpts{Width: 32})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	alone := replay(metrics.Bytes())
	if alone != out {
		t.Errorf("dashboard replayed from JSONL differs from the live samples':\n%s\n--- live ---\n%s", alone, out)
	}
	if mixed := replay(append(trace.Bytes(), metrics.Bytes()...)); mixed != alone {
		t.Errorf("dashboard on trace+metrics differs from the metrics alone:\n%s\n--- metrics alone ---\n%s", mixed, alone)
	}
}

func TestSparklineFlatSeries(t *testing.T) {
	if s := sparkline([]float64{5, 5, 5}, 8); s != "▁▁▁" {
		t.Errorf("flat series sparkline %q, want all-low", s)
	}
}

// shardFixture returns samples for a 2-shard run plus one unrelated
// instance.
func shardFixture() []obs.Sample {
	mk := func(fs string, t, seq, ops int64, rate, depth, debt float64) obs.Sample {
		return obs.Sample{
			Type: "metrics", V: obs.MetricsSchemaVersion, FS: fs, Time: t, Seq: seq,
			Counters: map[string]int64{"ops": ops},
			Gauges: map[string]float64{"ops.rate": rate,
				"disk.queue.depth": depth, "cleaner.debt_segments": debt},
		}
	}
	return []obs.Sample{
		mk("shard-1", 0, 0, 0, 0, 0, 0),
		mk("shard-1", 1e9, 1, 40, 40, 2, 1),
		mk("shard-0", 0, 0, 0, 0, 0, 0),
		mk("shard-0", 1e9, 1, 64, 64, 5, 3),
		mk("lfs-0", 0, 0, 9, 9, 1, 0),
	}
}

// TestDashboardShardSummary asserts the per-shard view: shard-N
// streams collapse into one table row each (in shard order, even when
// the stream order differs), other instances keep the full view, and
// -fs shard-K bypasses the summary.
func TestDashboardShardSummary(t *testing.T) {
	out, err := buildDashboard(shardFixture(), dashOpts{Width: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "=== shards: 2 instances") {
		t.Fatalf("shard summary missing:\n%s", out)
	}
	// One row per shard, shard 0 first despite shard-1 appearing first
	// in the stream; no full dashboard blocks for shard labels.
	i0 := strings.Index(out, "\n       0 ")
	i1 := strings.Index(out, "\n       1 ")
	if i0 < 0 || i1 < 0 || i1 < i0 {
		t.Errorf("shard rows missing or out of order:\n%s", out)
	}
	if strings.Contains(out, "=== shard-0") || strings.Contains(out, "=== shard-1") {
		t.Errorf("shard instances still rendered in full:\n%s", out)
	}
	// Row values: shard 0 final ops 64, peak qdepth 5, final debt 3.
	for _, want := range []string{"64", "5", "3"} {
		if !strings.Contains(out, want) {
			t.Errorf("shard row missing value %q:\n%s", want, out)
		}
	}
	// The non-shard instance keeps its full view.
	if !strings.Contains(out, "=== lfs-0") {
		t.Errorf("non-shard instance lost its full view:\n%s", out)
	}

	// -fs shard-0 opens the full single-shard view, no summary.
	out, err = buildDashboard(shardFixture(), dashOpts{Width: 16, FS: "shard-0"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "=== shard-0") || strings.Contains(out, "=== shards:") {
		t.Errorf("-fs shard-0 view wrong:\n%s", out)
	}

	// A single shard stream has nothing to collapse.
	out, err = buildDashboard(shardFixture()[:2], dashOpts{Width: 16})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "=== shards:") || !strings.Contains(out, "=== shard-1") {
		t.Errorf("single shard stream must render in full:\n%s", out)
	}
}

func TestShardIndex(t *testing.T) {
	for label, want := range map[string]int{"shard-0": 0, "shard-12": 12} {
		if n, ok := shardIndex(label); !ok || n != want {
			t.Errorf("shardIndex(%q) = %d, %v", label, n, ok)
		}
	}
	for _, label := range []string{"shard-", "shard-x", "lfs-0", "shard--1", ""} {
		if _, ok := shardIndex(label); ok {
			t.Errorf("shardIndex(%q) accepted", label)
		}
	}
}
