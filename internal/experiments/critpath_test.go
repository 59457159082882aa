package experiments

import (
	"strings"
	"testing"

	"lfs/internal/core"
	"lfs/internal/obs"
	"lfs/internal/server"
	"lfs/internal/shard"
	"lfs/internal/sim"
)

// smallCritPathOpts shrinks the experiment for test runtimes.
func smallCritPathOpts() ClientOpts {
	opts := DefaultClientOpts()
	opts.Capacity = 64 << 20
	opts.ClientCounts = []int{1, 4}
	opts.OpsPerClient = 16
	return opts
}

// TestCritPathExactness runs the experiment small and checks the
// invariant it is built around: every span decomposes exactly, so the
// per-phase means sum back to the mean latency and the reported rows
// are internally consistent.
func TestCritPathExactness(t *testing.T) {
	rows, err := CritPath(smallCritPathOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Spans == 0 || r.Spans != r.ExactSpans {
			t.Errorf("%d clients: %d/%d spans exact; the invariant must hold on every span",
				r.Clients, r.ExactSpans, r.Spans)
		}
		if r.FsyncCount == 0 {
			t.Errorf("%d clients: no fsyncs aggregated", r.Clients)
		}
		if r.P95 < r.P50 {
			t.Errorf("%d clients: p95 %v < p50 %v", r.Clients, r.P95, r.P50)
		}
		if r.MeanLatency() <= 0 {
			t.Errorf("%d clients: non-positive mean latency %v", r.Clients, r.MeanLatency())
		}
	}
	// The experiment exists to explain the concurrency curve's p50
	// jump: with contention, fsync time shifts from the client's own
	// commit into waiting on the group commit (piggyback or leader
	// wait). At 4 clients that contention must be visible.
	r4 := rows[1]
	if r4.MeanPhase[obs.PhasePiggybackWait]+r4.MeanPhase[obs.PhaseCommitWait] <= 0 {
		t.Errorf("4 clients: no commit or piggyback wait attributed: %+v", r4.MeanPhase)
	}

	out := FormatCritPath(rows)
	for _, want := range []string{"clients", "piggyback_wait", "top blame"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatCritPath output missing %q:\n%s", want, out)
		}
	}
}

// TestCritPathSamplesEndOnTheAggregates runs CritPath with a metrics
// sink: every file system it builds must be sampled to the end of its
// run, so each series' final ops counter is the file system's op count
// — one span per operation.
func TestCritPathSamplesEndOnTheAggregates(t *testing.T) {
	var samplers []*obs.Sampler
	MetricsSink = func(string) *obs.Sampler {
		s := obs.NewSampler(sim.Second)
		samplers = append(samplers, s)
		return s
	}
	defer func() { MetricsSink = nil }()
	rows, err := CritPath(smallCritPathOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(samplers) != len(rows) {
		t.Fatalf("%d samplers for %d rows", len(samplers), len(rows))
	}
	for i, s := range samplers {
		samples := s.Samples()
		if len(samples) == 0 {
			t.Fatalf("%d clients: no samples", rows[i].Clients)
		}
		if got, want := samples[len(samples)-1].Counters["ops"], int64(rows[i].Spans); got != want {
			t.Errorf("%d clients: final ops sample %d, file system ran %d ops", rows[i].Clients, got, want)
		}
	}
}

// TestShardedSpansExact drives a multi-client workload over a sharded
// system with a fresh recorder per shard and checks the exactness
// invariant on every span of every shard — the cross-shard waits
// (dispatch handoff, fan-out broadcast) must be attributed without
// perturbing the decomposition.
func TestShardedSpansExact(t *testing.T) {
	const shards = 3
	recs := make([]*obs.Recorder, shards)
	cfg := core.DefaultConfig()
	cfg.GroupCommit = true
	opts := shard.Options{
		Base: cfg,
		ShardConfig: func(i int, c core.Config) core.Config {
			recs[i] = obs.NewRecorder()
			c.Trace = recs[i]
			return c
		},
	}
	fs, err := shard.NewMem(shards, 96<<20, opts)
	if err != nil {
		t.Fatal(err)
	}
	scfg := server.Config{
		Clients:        4,
		OpsPerClient:   16,
		WriteSize:      4096,
		FilesPerClient: 8,
		Seed:           7,
	}
	if _, err := server.Run(fs, scfg); err != nil {
		t.Fatal(err)
	}

	var spans, fsyncs int
	var waits [obs.NumPhaseKinds]sim.Duration
	for i, rec := range recs {
		if rec == nil {
			t.Fatalf("shard %d: ShardConfig hook never ran", i)
		}
		for _, s := range rec.Spans() {
			spans++
			if !s.PhasesExact() {
				t.Errorf("shard %d: span %s %q latency %v, phases sum %v",
					i, s.Op, s.Path, s.Latency(), obs.PhaseTotals(s.Phases))
			}
			if s.Op == "fsync" {
				fsyncs++
			}
			for k, d := range obs.PhaseTotals(s.Phases) {
				waits[k] += d
			}
		}
	}
	if spans == 0 || fsyncs == 0 {
		t.Fatalf("recorded %d spans, %d fsyncs; want both > 0", spans, fsyncs)
	}
	// Cross-shard dispatch gaps are real on a contended sharded run:
	// the router hands each op's pre-dispatch wait to the owning
	// shard, so lock_wait must show up somewhere.
	if waits[obs.PhaseLockWait] <= 0 {
		t.Errorf("no dispatch-gap wait attributed across %d spans: %+v", spans, waits)
	}
}
