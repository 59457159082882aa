package server_test

import (
	"bytes"
	"reflect"
	"testing"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/ffs"
	"lfs/internal/obs"
	"lfs/internal/server"
	"lfs/internal/sim"
)

// newLFS mounts a fresh LFS with group commit and a trace recorder.
func newLFS(t *testing.T, group bool) (*core.FS, *obs.Recorder) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxInodes = 4096
	cfg.GroupCommit = group
	cfg.Trace = obs.NewRecorder()
	d := disk.NewMem(128<<20, sim.NewClock())
	if err := core.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs, cfg.Trace
}

// newFFS mounts a fresh FFS baseline.
func newFFS(t *testing.T) *ffs.FS {
	t.Helper()
	cfg := ffs.DefaultConfig()
	d := disk.NewMem(128<<20, sim.NewClock())
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestRunCompletesAllOps checks every client finishes its quota and
// the totals add up, on both file systems.
func TestRunCompletesAllOps(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Clients = 3
	cfg.OpsPerClient = 10

	lfs, _ := newLFS(t, true)
	res, err := server.Run(lfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != int64(cfg.Clients*cfg.OpsPerClient) {
		t.Errorf("LFS ops %d, want %d", res.Ops, cfg.Clients*cfg.OpsPerClient)
	}
	for _, st := range res.PerClient {
		if st.Ops != int64(cfg.OpsPerClient) {
			t.Errorf("client %d did %d ops, want %d", st.Client, st.Ops, cfg.OpsPerClient)
		}
		if st.MeanLatency() <= 0 {
			t.Errorf("client %d mean latency %v, want > 0", st.Client, st.MeanLatency())
		}
	}
	if res.OpsPerSecond() <= 0 {
		t.Errorf("throughput %v, want > 0", res.OpsPerSecond())
	}

	fres, err := server.Run(newFFS(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fres.Ops != res.Ops {
		t.Errorf("FFS ops %d, want %d", fres.Ops, res.Ops)
	}
}

// TestGroupCommitBatchesClients verifies the concurrency mechanism end
// to end: with several clients interleaving, most fsyncs piggyback on
// another client's group commit.
func TestGroupCommitBatchesClients(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Clients = 8
	cfg.OpsPerClient = 16

	lfs, _ := newLFS(t, true)
	if _, err := server.Run(lfs, cfg); err != nil {
		t.Fatal(err)
	}
	st := lfs.Stats()
	if st.GroupCommits == 0 || st.PiggybackedSyncs == 0 {
		t.Fatalf("no batching: %d group commits, %d piggybacks", st.GroupCommits, st.PiggybackedSyncs)
	}
	// With 8 clients most sync requests should ride someone else's
	// commit; demand at least a 2:1 piggyback ratio.
	if st.PiggybackedSyncs < 2*st.GroupCommits {
		t.Errorf("piggybacks %d < 2x group commits %d; batching too weak",
			st.PiggybackedSyncs, st.GroupCommits)
	}
}

// TestClientAttribution verifies spans and disk events carry the
// issuing client's ID.
func TestClientAttribution(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Clients = 3
	cfg.OpsPerClient = 4

	lfs, rec := newLFS(t, true)
	if _, err := server.Run(lfs, cfg); err != nil {
		t.Fatal(err)
	}
	opsByClient := make(map[int]int)
	for _, s := range rec.Spans() {
		opsByClient[s.Client]++
	}
	for c := 1; c <= cfg.Clients; c++ {
		if opsByClient[c] == 0 {
			t.Errorf("no spans attributed to client %d: %v", c, opsByClient)
		}
	}
	ioByClient := make(map[int]int)
	for _, ev := range rec.Events() {
		ioByClient[ev.Client]++
	}
	var attributed int
	for c := 1; c <= cfg.Clients; c++ {
		attributed += ioByClient[c]
	}
	if attributed == 0 {
		t.Errorf("no disk events attributed to any client: %v", ioByClient)
	}
}

// TestDeterminism is the golden determinism check from the issue: two
// same-seed runs must produce byte-identical JSONL traces and
// identical statistics snapshots.
func TestDeterminism(t *testing.T) {
	run := func() ([]byte, core.StatsSnapshot) {
		cfg := server.DefaultConfig()
		cfg.Clients = 6
		cfg.OpsPerClient = 12
		lfs, rec := newLFS(t, true)
		if _, err := server.Run(lfs, cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), lfs.StatsSnapshot()
	}
	trace1, snap1 := run()
	trace2, snap2 := run()
	if !bytes.Equal(trace1, trace2) {
		t.Errorf("same-seed traces differ (%d vs %d bytes)", len(trace1), len(trace2))
	}
	if !reflect.DeepEqual(snap1, snap2) {
		t.Errorf("same-seed snapshots differ:\n%+v\nvs\n%+v", snap1, snap2)
	}
	// Different seed must actually change the schedule, or the
	// determinism check above is vacuous.
	cfg := server.DefaultConfig()
	cfg.Clients = 6
	cfg.OpsPerClient = 12
	cfg.Seed = 99
	lfs, rec := newLFS(t, true)
	if _, err := server.Run(lfs, cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(trace1, buf.Bytes()) {
		t.Errorf("different seeds produced identical traces")
	}
}

// TestConfigValidation rejects bad configurations.
func TestConfigValidation(t *testing.T) {
	bad := []server.Config{
		{Clients: 0, OpsPerClient: 1, WriteSize: 1, FilesPerClient: 1},
		{Clients: 1, OpsPerClient: 0, WriteSize: 1, FilesPerClient: 1},
		{Clients: 1, OpsPerClient: 1, WriteSize: 0, FilesPerClient: 1},
		{Clients: 1, OpsPerClient: 1, WriteSize: 1, FilesPerClient: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, cfg)
		}
	}
	lfs, _ := newLFS(t, false)
	if _, err := server.Run(lfs, server.Config{}); err == nil {
		t.Error("Run accepted the zero config")
	}
}

// TestMetricsPumpIsInvisible runs the identical workload with and
// without a metrics sampler attached: the Result (times, events, every
// per-client stat) must be identical, the pump must not extend the
// run past the last operation, and samples must actually land.
func TestMetricsPumpIsInvisible(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Clients = 3
	cfg.OpsPerClient = 20

	base, _ := newLFS(t, true)
	want, err := server.Run(base, cfg)
	if err != nil {
		t.Fatal(err)
	}

	lcfg := core.DefaultConfig()
	lcfg.MaxInodes = 4096
	lcfg.GroupCommit = true
	lcfg.Metrics = obs.NewSampler(sim.Millisecond)
	d := disk.NewMem(128<<20, sim.NewClock())
	if err := core.Format(d, lcfg); err != nil {
		t.Fatal(err)
	}
	lfs, err := core.Mount(d, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := server.Run(lfs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Errorf("metrics-enabled Result differs:\n got %+v\nwant %+v", got, want)
	}
	samples := lcfg.Metrics.Samples()
	if len(samples) < 3 {
		t.Fatalf("%d samples, want several (pump every %v over %v)",
			len(samples), sim.Millisecond, got.Elapsed())
	}
	if last := samples[len(samples)-1]; sim.Time(last.Time) > got.End {
		t.Errorf("last sample at %v is past run end %v: pump extended the run",
			sim.Time(last.Time), got.End)
	}
}

// tickOnly forwards the file system but answers TickMetrics without
// saying how often it wants it — no MetricsInterval, the shape of
// lfsperf's probe.
type tickOnly struct {
	server.FS
	ticks int
}

func (f *tickOnly) TickMetrics() { f.ticks++ }

// TestTickWithoutIntervalIsNotPumped: the pump runs at the target's own
// interval, so a target that names none is never pumped, however long
// the run.
func TestTickWithoutIntervalIsNotPumped(t *testing.T) {
	cfg := server.DefaultConfig()
	lfs, _ := newLFS(t, true)
	fs := &tickOnly{FS: lfs}
	if _, err := server.Run(fs, cfg); err != nil {
		t.Fatal(err)
	}
	if fs.ticks != 0 {
		t.Errorf("pumped %d times without a metrics interval", fs.ticks)
	}
}

// TestClientLatencyHistogram checks the per-client latency histograms
// are populated and consistent with the op counts.
func TestClientLatencyHistogram(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Clients = 2
	cfg.OpsPerClient = 8

	lfs, _ := newLFS(t, true)
	res, err := server.Run(lfs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.PerClient {
		if st.Latency.Total() != st.Ops {
			t.Errorf("client %d: histogram holds %d observations, want %d",
				st.Client, st.Latency.Total(), st.Ops)
		}
		p50, p95, p99 := st.Latency.Quantile(0.5), st.Latency.Quantile(0.95), st.Latency.Quantile(0.99)
		if p50 <= 0 || p50 > p95 || p95 > p99 {
			t.Errorf("client %d: percentiles not monotone: p50 %v p95 %v p99 %v",
				st.Client, p50, p95, p99)
		}
	}
}
