package experiments

import (
	"strings"
	"testing"

	"lfs/internal/sim"
)

// quickShardingOpts shrinks the sweep for the test suite: three shard
// counts and half the clients are enough to assert the scaling shape.
func quickShardingOpts() ShardingOpts {
	o := DefaultShardingOpts()
	o.TotalCapacity = 96 << 20
	o.ShardCounts = []int{1, 2, 4}
	o.Clients = 16
	o.OpsPerClient = 48
	return o
}

// TestShardingShape asserts the experiment's headline claims at the
// CI scale: throughput grows with shard count, the same seed
// reproduces every shard image, and the crash scenario recovers the
// crashed shard without losing the healthy shards' commits.
func TestShardingShape(t *testing.T) {
	res, err := Sharding(quickShardingOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	one, four := res.Rows[0], res.Rows[2]
	if one.Shards != 1 || four.Shards != 4 {
		t.Fatalf("row shard counts %d, %d", one.Shards, four.Shards)
	}
	// Splitting the append point must pay: at least 1.5x at 4 shards
	// even at the small CI scale (measured ~2.1x).
	if four.Speedup < 1.5 {
		t.Errorf("speedup at 4 shards %.2f, want >= 1.5", four.Speedup)
	}
	// More logs mean smaller group-commit batches, so per-op write
	// count must rise, not fall — the scaling comes from overlapping
	// disks, not from writing less.
	if four.WritesPerOp <= one.WritesPerOp {
		t.Errorf("writes/op %.2f at 4 shards vs %.2f at 1; want higher",
			four.WritesPerOp, one.WritesPerOp)
	}
	if !res.Deterministic {
		t.Error("same-seed rerun of the largest cell diverged")
	}
	c := res.Crash
	if !c.FsckOk {
		t.Error("post-crash fsck failed")
	}
	if c.ToleratedErrors == 0 {
		t.Error("crash phase tolerated no errors; the power cut never bit")
	}
	if c.HealthyOps == 0 {
		t.Error("no operations committed while one shard was down")
	}
	// runCell drives FilesPerClient=8 files per client; every one must
	// survive the crash and recovery.
	wantFiles := quickShardingOpts().Clients * 8
	if c.FilesRetained != wantFiles {
		t.Errorf("files retained %d, want %d", c.FilesRetained, wantFiles)
	}
}

// TestShardingFormat pins the output layer.
func TestShardingFormat(t *testing.T) {
	res := &ShardingResult{
		Rows: []ShardingRow{
			{Shards: 1, Clients: 32, OpsPerSec: 250, Speedup: 1,
				WritesPerOp: 0.04, P50: 200 * sim.Millisecond,
				P95: 290 * sim.Millisecond, P99: 298 * sim.Millisecond},
			{Shards: 8, Clients: 32, OpsPerSec: 890, Speedup: 3.38,
				WritesPerOp: 0.26, P50: 58 * sim.Millisecond,
				P95: 96 * sim.Millisecond, P99: 99 * sim.Millisecond},
		},
		Crash: ShardingCrash{Shards: 4, CutWrite: 5, ToleratedErrors: 992,
			HealthyOps: 3104, FilesRetained: 256, FsckOk: true},
		Deterministic: true,
	}
	out := FormatSharding(res)
	if lines := strings.Count(out, "\n"); lines != 6 {
		t.Errorf("formatted output has %d lines, want 6:\n%s", lines, out)
	}
	for _, want := range []string{"shards", "890.0", "3.38", "deterministic: true",
		"992 errors tolerated", "256 files retained", "fsck ok: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
}
