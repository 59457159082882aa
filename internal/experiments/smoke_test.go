package experiments

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/obs"
	"lfs/internal/sim"
	"lfs/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testSmoke is the test-sized smoke workload shared by every test here
// and both golden files.
var testSmoke = smokeWorkload{
	capacity:      64 << 20,
	numFiles:      500,
	fileSize:      1024,
	churnFiles:    1500,
	cleanSegments: 6,
}

// smokeRun runs the test-sized workload with the given observers — nil
// leaves that plane off — and returns the system, its mounted FS and
// the small-file phases.
func smokeRun(t *testing.T, rec *obs.Recorder, samp *obs.Sampler) (*System, *core.FS, workload.SmallFileResult) {
	t.Helper()
	sys, res, err := testSmoke.run(rec, samp)
	if err != nil {
		t.Fatal(err)
	}
	return sys, sys.System.(*core.FS), res
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

// metricsJSONL is the sampler's export, as lfsbench -metrics writes it.
func metricsJSONL(t *testing.T, samp *obs.Sampler) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := samp.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGolden holds got to testdata/name; regenerate with
// `go test ./internal/experiments -run Golden -update`.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted (regenerate with -update if intended)\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestTraceSmokeAttribution(t *testing.T) {
	rec := obs.NewRecorder()
	_, fs, _ := smokeRun(t, rec, nil)
	agg, snap := rec.Aggregates(), fs.StatsSnapshot()

	// The acceptance bar: at least 99% of disk busy time carries a
	// named cause. The implementation should in fact hit 100%.
	traceNamed, traceBusy := agg.AttributedBusy()
	if share := traceNamed.Seconds() / traceBusy.Seconds(); !(share >= 0.99) {
		t.Errorf("traced named share = %.4f, want >= 0.99", share)
	}
	var statSum, statNamed sim.Duration
	for c := disk.IOCause(0); c < disk.NumCauses; c++ {
		statSum += snap.Disk.ByCause[c].Busy
		if c != disk.CauseOther {
			statNamed += snap.Disk.ByCause[c].Busy
		}
	}
	if share := statNamed.Seconds() / snap.Disk.BusyTime.Seconds(); !(share >= 0.99) {
		t.Errorf("disk-counter named share = %.4f, want >= 0.99", share)
	}

	// The decomposition must sum to the total busy time within 0.1%,
	// both over the trace events and over the disk's own counters.
	var traceSum sim.Duration
	for _, io := range agg.IO {
		traceSum += io.Busy
	}
	if traceBusy == 0 || relErr(traceSum, traceBusy) > 0.001 {
		t.Errorf("trace ByCause sum %v vs busy %v (rel err %v)",
			traceSum, traceBusy, relErr(traceSum, traceBusy))
	}
	if snap.Disk.BusyTime == 0 || relErr(statSum, snap.Disk.BusyTime) > 0.001 {
		t.Errorf("disk ByCause sum %v vs busy %v (rel err %v)",
			statSum, snap.Disk.BusyTime, relErr(statSum, snap.Disk.BusyTime))
	}

	// The cleaner ran and its trace-derived write cost agrees with the
	// counter-derived one.
	if agg.Clean.Activations == 0 {
		t.Fatal("cleaner never ran; the smoke test must exercise cleaning")
	}
	if agg.Clean.WriteCost < 1 {
		t.Errorf("write cost %v < 1", agg.Clean.WriteCost)
	}
	if math.Abs(agg.Clean.WriteCost-snap.WriteCost()) > 1e-9 {
		t.Errorf("write cost from trace %v != from stats %v", agg.Clean.WriteCost, snap.WriteCost())
	}

	// Both the log writer and the cleaner must appear in the
	// decomposition by name.
	seen := map[disk.IOCause]bool{}
	for _, io := range agg.IO {
		seen[io.Cause] = true
	}
	for _, want := range []disk.IOCause{disk.CauseLogAppend, disk.CauseCleanerRead,
		disk.CauseCleanerWrite, disk.CauseCheckpoint, disk.CauseReadMiss} {
		if !seen[want] {
			t.Errorf("cause %v missing from decomposition", want)
		}
	}
}

func relErr(a, b sim.Duration) float64 {
	return math.Abs(a.Seconds()-b.Seconds()) / b.Seconds()
}

// TestTraceSmokeGolden pins the trace row's report — phase rates, the
// busy-time decomposition, and the cleaner summary — at test scale.
// The simulation is deterministic, so any diff means the timing model,
// the instrumentation coverage, or the cleaner changed.
func TestTraceSmokeGolden(t *testing.T) {
	rec := obs.NewRecorder()
	_, fs, res := smokeRun(t, rec, nil)
	checkGolden(t, "tracesmoke.golden", traceResult(res, rec, fs.StatsSnapshot()).Text)
}

// TestMetricsSmokeGolden pins the metrics row's report — the series
// shape and the forced final sample — at test scale.
func TestMetricsSmokeGolden(t *testing.T) {
	samp := obs.NewSampler(sim.Second)
	_, fs, _ := smokeRun(t, nil, samp)
	fs.SampleMetricsNow()
	r, err := metricsResult(samp.Samples(), fs.StatsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metricssmoke.golden", r.Text)
}

// TestMetricsZeroPerturbation is the plane's core golden test:
// enabling sampling must change no simulated timestamp, no statistic,
// and no on-disk byte relative to the identical run without it.
func TestMetricsZeroPerturbation(t *testing.T) {
	sysPlain, fsPlain, _ := smokeRun(t, nil, nil)
	samp := obs.NewSampler(sim.Second)
	sysSampled, fsSampled, _ := smokeRun(t, nil, samp)

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

// TestSmokeBothObservers runs the workload under a recorder and a
// sampler at once, as lfsbench -trace -metrics does on the trace row,
// and holds it to the single-observer runs: neither observer may
// perturb the other or the file system.
func TestSmokeBothObservers(t *testing.T) {
	recBoth, sampBoth := obs.NewRecorder(), obs.NewSampler(sim.Second)
	sysBoth, fsBoth, resBoth := smokeRun(t, recBoth, sampBoth)
	rec := obs.NewRecorder()
	sysTraced, fsTraced, resTraced := smokeRun(t, rec, nil)
	samp := obs.NewSampler(sim.Second)
	sysSampled, fsSampled, _ := smokeRun(t, nil, samp)
	if n := len(samp.Samples()); n < 2 {
		t.Fatalf("sampled run produced %d samples; the comparison is vacuous", n)
	}

	both, traced, sampled := fsBoth.StatsSnapshot(), fsTraced.StatsSnapshot(), fsSampled.StatsSnapshot()
	if got, want := traceResult(resBoth, recBoth, both).Text, traceResult(resTraced, rec, traced).Text; got != want {
		t.Errorf("sampling changed the trace report:\n--- both ---\n%s--- trace only ---\n%s", got, want)
	}
	if !reflect.DeepEqual(both, traced) {
		t.Errorf("sampling changed the traced snapshot:\nboth   %+v\ntraced %+v", both, traced)
	}
	// The sampled-only snapshot has no trace aggregates to compare.
	both.Trace = nil
	if !reflect.DeepEqual(both, sampled) {
		t.Errorf("tracing changed the sampled snapshot:\nboth    %+v\nsampled %+v", both, sampled)
	}
	img := diskImage(t, sysBoth)
	if !bytes.Equal(img, diskImage(t, sysTraced)) || !bytes.Equal(img, diskImage(t, sysSampled)) {
		t.Error("observing with both planes changed the on-disk bytes")
	}
	if !bytes.Equal(metricsJSONL(t, sampBoth), metricsJSONL(t, samp)) {
		t.Error("tracing changed the metrics export")
	}
}

// TestMetricsByteDeterminism pins the JSONL export: two runs with the
// same seed must serialise byte-identically.
func TestMetricsByteDeterminism(t *testing.T) {
	runJSONL := func() []byte {
		samp := obs.NewSampler(sim.Second)
		_, fs, _ := smokeRun(t, nil, samp)
		fs.SampleMetricsNow()
		return metricsJSONL(t, samp)
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
	sys, fs, _ := smokeRun(t, nil, samp)
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

	// The metrics row's summary reports the same agreement.
	r, err := metricsResult(samples, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Bench["final_blocks_written"]; got != snap.Log.BlocksWritten {
		t.Errorf("row final blocks %v != snapshot %d", got, snap.Log.BlocksWritten)
	}
	if got := r.Bench["final_segments_cleaned"]; got != snap.Log.SegmentsCleaned {
		t.Errorf("row final cleaned %v != snapshot %d", got, snap.Log.SegmentsCleaned)
	}
	if got := r.Bench["final_write_cost"]; got != snap.WriteCost() {
		t.Errorf("row final write cost %v != snapshot %v", got, snap.WriteCost())
	}
	if snap.Log.SegmentsCleaned == 0 {
		t.Error("smoke run never cleaned; the series cannot exercise the cleaner")
	}
}
