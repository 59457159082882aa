package main

// The crashsweep experiment benchmarks the crash-point harness's two
// strategies against each other: the snapshot path restores a
// copy-on-write image per point (O(points)), the replay path re-runs
// the workload per point (O(points × writes)). Both are swept over the
// same mixed workload. The gated result is work: workload operations
// executed per crash point, which repeats exactly; the run fails unless
// replay executes at least minCrashSweepSpeedup times as many as the
// snapshot path. Wall-clock points-per-second are printed beside it for
// the reader and gate nothing — that ratio shrinks whenever the file
// system itself gets faster, which is no regression of the harness.
//
// This file lives in cmd/ (not internal/experiments) deliberately:
// timing the harness needs wall-clock time, which the wallclock lint
// rule bans inside the simulation packages.

import (
	"fmt"
	"math"
	"time"

	"lfs"
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
func crashSweepWorkload(files, churn, blockSize int) []fstest.CrashOp {
	ops := fstest.MixedWorkload(files, blockSize)
	name := func(i int) string {
		dir := "/a"
		if i%2 == 1 {
			dir = "/b"
		}
		return fmt.Sprintf("%s/f%02d", dir, i)
	}
	for r := 0; r < churn; r++ {
		n := 0
		for i := 0; i < files; i++ {
			// MixedWorkload removes indices ≡ 2 (mod 6); churn only
			// the survivors ≡ 0 or 1.
			if i%6 > 1 {
				continue
			}
			data := make([]byte, 3*blockSize+blockSize/2)
			for j := range data {
				data[j] = byte(i*31 + (r+2)*7 + j)
			}
			// Sync after every overwrite so each one reaches the log
			// as its own partial-segment flush instead of batching in
			// the cache.
			ops = append(ops,
				fstest.CrashOp{Kind: fstest.OpWrite, Path: name(i), Off: 0, Data: data},
				fstest.CrashOp{Kind: fstest.OpSync},
			)
			if n++; n%4 == 3 {
				ops = append(ops, fstest.CrashOp{Kind: fstest.OpCheckpoint})
			}
		}
		if r%2 == 1 {
			ops = append(ops, fstest.CrashOp{Kind: fstest.OpClean})
		}
	}
	ops = append(ops, fstest.CrashOp{Kind: fstest.OpCheckpoint})
	return ops
}

func runCrashSweep(quick bool) error {
	cfg := lfs.DefaultConfig()
	cfg.SegmentSize = 64 << 10
	cfg.CacheBlocks = 64
	cfg.MaxInodes = 512
	// The workload must be long enough that replaying it dwarfs the
	// per-point verification cost both strategies share — too short
	// and the measured ratio flattens toward 1. Churn rounds extend
	// the write stream without growing the live set (and hence the
	// verification walk).
	files, churn, snapStride, replayStride := 32, 40, 3, 24
	if quick {
		files, churn, snapStride, replayStride = 24, 60, 4, 32
	}
	base := fstest.CrashConfig{
		FSConfig:     cfg,
		DiskCapacity: 8 << 20,
		Workload:     crashSweepWorkload(files, churn, cfg.BlockSize),
		Torn:         true,
	}

	snapCfg := base
	snapCfg.Stride = snapStride
	start := time.Now()
	snap, err := fstest.RunCrashPoints(snapCfg)
	if err != nil {
		return fmt.Errorf("snapshot sweep: %w", err)
	}
	snapElapsed := time.Since(start)

	replayCfg := base
	replayCfg.Replay = true
	replayCfg.Stride = replayStride
	start = time.Now()
	replay, err := fstest.RunCrashPoints(replayCfg)
	if err != nil {
		return fmt.Errorf("replay sweep: %w", err)
	}
	replayElapsed := time.Since(start)

	// The strategies must agree on the workload and both recover
	// cleanly; a failure here is a harness bug, not a perf result.
	if snap.TotalWrites != replay.TotalWrites {
		return fmt.Errorf("strategies disagree on write count: snapshot %d, replay %d",
			snap.TotalWrites, replay.TotalWrites)
	}
	for _, f := range append(snap.Failures, replay.Failures...) {
		fmt.Printf("  FAIL %s\n", f)
	}
	if !snap.Ok() || !replay.Ok() {
		return fmt.Errorf("crash sweep found %d recovery failures",
			len(snap.Failures)+len(replay.Failures))
	}

	snapPerSec := float64(snap.Points) / snapElapsed.Seconds()
	replayPerSec := float64(replay.Points) / replayElapsed.Seconds()
	speedup := snapPerSec / replayPerSec
	fmt.Printf("workload: %d ops, %d disk writes\n", len(base.Workload), snap.TotalWrites)
	fmt.Printf("snapshot: %4d points in %8.2fms  (%8.1f points/s, %d rolled forward)\n",
		snap.Points, snapElapsed.Seconds()*1000, snapPerSec, snap.RollForwardPoints)
	fmt.Printf("replay:   %4d points in %8.2fms  (%8.1f points/s, stride %d)\n",
		replay.Points, replayElapsed.Seconds()*1000, replayPerSec, replayStride)
	fmt.Printf("speedup:  %.1fx per point (wall clock, not gated)\n", speedup)
	snapOps := float64(snap.OpsExecuted) / float64(snap.Points)
	replayOps := float64(replay.OpsExecuted) / float64(replay.Points)
	workRatio := replayOps / snapOps
	fmt.Printf("work:     %.1f vs %.1f ops executed per point, %.1fx (floor %.0fx)\n",
		replayOps, snapOps, workRatio, minCrashSweepSpeedup)
	if workRatio < minCrashSweepSpeedup {
		return fmt.Errorf("replay sweep executes only %.1fx the snapshot sweep's ops per point (floor %.0fx)",
			workRatio, minCrashSweepSpeedup)
	}

	if benchJSON != "" {
		// Deterministic counters are JSON numbers (diffed by
		// benchdiff); wall-clock figures are strings, recorded for
		// humans but exempt from the ±10% gate.
		summary := map[string]any{
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
			"snapshot_points_per_s": fmt.Sprintf("%.1f", snapPerSec),
			"replay_points_per_s":   fmt.Sprintf("%.1f", replayPerSec),
			"speedup_x":             fmt.Sprintf("%.1f", speedup),
		}
		if err := writeBenchJSON(benchJSON, summary); err != nil {
			return err
		}
	}
	return nil
}
