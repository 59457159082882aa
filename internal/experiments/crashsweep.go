package experiments

// The crashsweep experiment benchmarks the crash-point harness's two
// strategies against each other: the snapshot path restores a
// copy-on-write image per point (O(points)), the replay path re-runs
// the workload per point (O(points × writes)). Both are swept over the
// same mixed workload. The result is work: workload operations executed
// per crash point, which repeats exactly; the run fails unless replay
// executes at least minCrashSweepSpeedup times as many as the snapshot
// path. How long either sweep takes on the host is not this
// experiment's business — that ratio shrinks whenever the file system
// itself gets faster, which is no regression of the harness, and
// cmd/lfsperf is the wall-clock ledger.

import (
	"fmt"
	"math"
	"strings"

	"lfs/internal/core"
	"lfs/internal/fstest"
)

// minCrashSweepSpeedup is the acceptance floor: replaying workloads
// must cost at least this many times the operations per crash point
// that restoring snapshots does.
const minCrashSweepSpeedup = 5.0

// crashSweepWorkload is MixedWorkload followed by churn rounds of
// overwrites on files the mixed phase never deletes, with periodic
// syncs and checkpoints. Overwrites lengthen the disk-write stream —
// what replay pays for per point — while the live tree stays small.
func crashSweepWorkload(files, churn, blockSize int) []fstest.Op {
	ops := fstest.MixedWorkload(files, blockSize)
	for r := 0; r < churn; r++ {
		n := 0
		for i := 0; i < files; i++ {
			// Churn the files ≡ 0 or 1 (mod 6), a third of the set.
			if i%6 > 1 {
				continue
			}
			// Sync after every overwrite so each one reaches the log
			// as its own partial-segment flush instead of batching in
			// the cache.
			ops = append(ops, fstest.MixedWrite(i, r+2, blockSize), fstest.Op{Kind: fstest.OpSync})
			if n++; n%4 == 3 {
				ops = append(ops, fstest.Op{Kind: fstest.OpCheckpoint})
			}
		}
		if r%2 == 1 {
			ops = append(ops, fstest.Op{Kind: fstest.OpClean})
		}
	}
	return append(ops, fstest.Op{Kind: fstest.OpCheckpoint})
}

// runCrashSweep is the table's crashsweep row.
func runCrashSweep() (Result, error) {
	cfg := core.DefaultConfig()
	cfg.SegmentSize = 64 << 10
	cfg.CacheBlocks = 64
	cfg.MaxInodes = 512
	// The workload must be long enough that replaying it dwarfs the
	// per-point verification cost both strategies share. Churn rounds
	// extend the write stream without growing the live set (and hence
	// the verification walk).
	const files, churn, snapStride, replayStride = 32, 40, 3, 24
	base := fstest.CrashConfig{
		FSConfig:     cfg,
		DiskCapacity: 8 << 20,
		Workload:     crashSweepWorkload(files, churn, cfg.BlockSize),
		Torn:         true,
	}

	snapCfg := base
	snapCfg.Stride = snapStride
	snap, err := fstest.RunCrashPoints(snapCfg)
	if err != nil {
		return Result{}, fmt.Errorf("snapshot sweep: %w", err)
	}
	replayCfg := base
	replayCfg.Replay = true
	replayCfg.Stride = replayStride
	replay, err := fstest.RunCrashPoints(replayCfg)
	if err != nil {
		return Result{}, fmt.Errorf("replay sweep: %w", err)
	}

	// The strategies must agree on the workload and both recover
	// cleanly; a failure here is a harness bug, not a perf result.
	if snap.TotalWrites != replay.TotalWrites {
		return Result{}, fmt.Errorf("strategies disagree on write count: snapshot %d, replay %d",
			snap.TotalWrites, replay.TotalWrites)
	}
	var b strings.Builder
	for _, f := range append(snap.Failures, replay.Failures...) {
		fmt.Fprintf(&b, "  FAIL %s\n", f)
	}
	if !snap.Ok() || !replay.Ok() {
		return Result{Text: b.String()}, fmt.Errorf("crash sweep found %d recovery failures",
			len(snap.Failures)+len(replay.Failures))
	}

	snapOps := float64(snap.OpsExecuted) / float64(snap.Points)
	replayOps := float64(replay.OpsExecuted) / float64(replay.Points)
	workRatio := replayOps / snapOps
	fmt.Fprintf(&b, "workload: %d ops, %d disk writes\n", len(base.Workload), snap.TotalWrites)
	fmt.Fprintf(&b, "snapshot: %4d points (%d rolled forward)\n", snap.Points, snap.RollForwardPoints)
	fmt.Fprintf(&b, "replay:   %4d points (stride %d)\n", replay.Points, replayStride)
	fmt.Fprintf(&b, "work:     %.1f vs %.1f ops executed per point, %.1fx (floor %.0fx)\n",
		replayOps, snapOps, workRatio, minCrashSweepSpeedup)
	res := Result{Text: b.String()}
	if workRatio < minCrashSweepSpeedup {
		return res, fmt.Errorf("replay sweep executes only %.1fx the snapshot sweep's ops per point (floor %.0fx)",
			workRatio, minCrashSweepSpeedup)
	}
	res.Bench = map[string]any{
		"experiment":            "crashsweep",
		"total_writes":          snap.TotalWrites,
		"points":                snap.Points,
		"rollforward_points":    snap.RollForwardPoints,
		"snapshot_points":       snap.SnapshotPoints,
		"replay_points":         replay.Points,
		"snapshot_ops_executed": snap.OpsExecuted,
		"replay_ops_executed":   replay.OpsExecuted,
		"work_ratio_x":          math.Round(workRatio*10) / 10,
		"crash_failures":        len(snap.Failures) + len(replay.Failures),
		"speedup_floor_met":     1,
	}
	return res, nil
}
