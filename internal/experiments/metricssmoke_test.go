package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"lfs/internal/core"
	"lfs/internal/obs"
	"lfs/internal/sim"
)

// metricsTestOpts returns the test-sized metrics smoke configuration.
func metricsTestOpts() MetricsSmokeOpts {
	o := DefaultMetricsSmokeOpts()
	o.NumFiles = 500
	o.ChurnFiles = 1500
	o.CleanSegments = 6
	return o
}

// runMetricsWorkload runs the metrics smoke workload directly (the
// same sequence MetricsSmoke runs) with the given sampler — nil
// disables the plane entirely — and returns the system and mounted FS.
func runMetricsWorkload(t *testing.T, samp *obs.Sampler) (*System, *core.FS) {
	t.Helper()
	opts := metricsTestOpts()
	cfg := opts.LFSConfig
	cfg.Metrics = samp
	sys, _, err := opts.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, sys.System.(*core.FS)
}

// diskImage reads the entire simulated disk image through the backing
// store, which never touches the simulated clock.
func diskImage(t *testing.T, sys *System) []byte {
	t.Helper()
	buf := make([]byte, sys.Disk.Capacity())
	if err := sys.Disk.Store().ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestMetricsZeroPerturbation is the plane's core golden test:
// enabling sampling must change no simulated timestamp, no statistic,
// and no on-disk byte relative to the identical run without it.
func TestMetricsZeroPerturbation(t *testing.T) {
	sysPlain, fsPlain := runMetricsWorkload(t, nil)
	samp := obs.NewSampler(sim.Second)
	sysSampled, fsSampled := runMetricsWorkload(t, samp)

	if n := len(samp.Samples()); n < 2 {
		t.Fatalf("sampled run produced %d samples; the comparison is vacuous", n)
	}

	plain, sampled := fsPlain.StatsSnapshot(), fsSampled.StatsSnapshot()
	if plain.Time != sampled.Time {
		t.Errorf("sampling moved simulated time: %v vs %v", plain.Time, sampled.Time)
	}
	if plain.Disk.BusyTime != sampled.Disk.BusyTime {
		t.Errorf("sampling changed disk busy time: %v vs %v",
			plain.Disk.BusyTime, sampled.Disk.BusyTime)
	}
	if plain.CPUInstructions != sampled.CPUInstructions {
		t.Errorf("sampling charged CPU: %d vs %d",
			plain.CPUInstructions, sampled.CPUInstructions)
	}
	if !reflect.DeepEqual(plain, sampled) {
		t.Errorf("sampling changed the statistics snapshot:\nplain   %+v\nsampled %+v",
			plain, sampled)
	}
	if !bytes.Equal(diskImage(t, sysPlain), diskImage(t, sysSampled)) {
		t.Error("sampling changed the on-disk bytes")
	}
}

// TestMetricsByteDeterminism pins the JSONL export: two runs with the
// same seed must serialise byte-identically.
func TestMetricsByteDeterminism(t *testing.T) {
	runJSONL := func() []byte {
		opts := metricsTestOpts()
		opts.Metrics = obs.NewSampler(sim.Second)
		if _, err := MetricsSmoke(opts); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := opts.Metrics.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runJSONL(), runJSONL()
	if len(a) == 0 {
		t.Fatal("empty metrics export")
	}
	if !bytes.Equal(a, b) {
		t.Error("same-seed runs exported different metrics bytes")
	}
	// And the export round-trips through the reader unchanged.
	st, err := obs.ReadJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Samples) < 2 {
		t.Errorf("round-trip kept %d samples", len(st.Samples))
	}
}

// TestMetricsFinalSampleEqualsAggregates pins the forced end-of-run
// sample against the live aggregates: the final sample IS the end
// state, exactly, not an approximation of it.
func TestMetricsFinalSampleEqualsAggregates(t *testing.T) {
	samp := obs.NewSampler(sim.Second)
	sys, fs := runMetricsWorkload(t, samp)
	fs.SampleMetricsNow()
	samples := samp.Samples()
	final := samples[len(samples)-1]
	snap := fs.StatsSnapshot()

	if got, want := final.Time, int64(snap.Time); got != want {
		t.Errorf("final sample time %d != snapshot time %d", got, want)
	}
	counters := map[string]int64{
		"log.blocks_written":       snap.Log.BlocksWritten,
		"log.segments_sealed":      snap.Log.SegmentsSealed,
		"log.checkpoints":          snap.Log.Checkpoints,
		"log.user_bytes":           snap.Log.UserBytesWritten,
		"cleaner.runs":             snap.Log.CleanerRuns,
		"cleaner.segments_cleaned": snap.Log.SegmentsCleaned,
		"disk.reads":               snap.Disk.Reads,
		"disk.writes":              snap.Disk.Writes,
		"disk.busy_ns":             int64(snap.Disk.BusyTime),
	}
	for name, want := range counters {
		if got := final.Counters[name]; got != want {
			t.Errorf("final %s = %d, aggregate = %d", name, got, want)
		}
	}
	gauges := map[string]float64{
		"seg.clean":          float64(snap.CleanSegments),
		"seg.live_bytes":     float64(snap.LiveBytes),
		"cleaner.write_cost": snap.WriteCost(),
		"disk.queue.depth":   float64(sys.Disk.QueueDepth()),
		"disk.queue.max":     float64(sys.Disk.MaxQueueDepth()),
	}
	for name, want := range gauges {
		if got := final.Gauges[name]; got != want {
			t.Errorf("final %s = %v, aggregate = %v", name, got, want)
		}
	}
	if final.Counters["ops"] == 0 {
		t.Error("final ops counter is zero")
	}

	// The final utilization histogram equals one rebuilt from the
	// public per-segment utilizations.
	want := obs.NewUtilizationHistogram()
	for _, u := range fs.SegmentUtilizations() {
		want.Observe(u)
	}
	if got := final.Hists["seg.util"]; !reflect.DeepEqual(got, want) {
		t.Errorf("final seg.util %v != rebuilt %v", got, want)
	}

	// The smoke experiment reports the same agreement.
	r, err := MetricsSmoke(metricsTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.FinalBlocksWritten != r.Snapshot.Log.BlocksWritten {
		t.Errorf("smoke final blocks %d != snapshot %d",
			r.FinalBlocksWritten, r.Snapshot.Log.BlocksWritten)
	}
	if r.FinalSegmentsCleaned != r.Snapshot.Log.SegmentsCleaned {
		t.Errorf("smoke final cleaned %d != snapshot %d",
			r.FinalSegmentsCleaned, r.Snapshot.Log.SegmentsCleaned)
	}
	if r.FinalWriteCost != r.Snapshot.WriteCost() {
		t.Errorf("smoke final write cost %v != snapshot %v",
			r.FinalWriteCost, r.Snapshot.WriteCost())
	}
	if r.FinalSegmentsCleaned == 0 {
		t.Error("smoke run never cleaned; the series cannot exercise the cleaner")
	}
}
