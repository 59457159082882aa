package experiments

// The crashsweep experiment benchmarks the crash-point harness's two
// strategies against each other: the snapshot path restores a
// copy-on-write image per point (O(points)), the replay path re-runs
// the workload per point (O(points × writes)). Both are swept over the
// same mixed workload, and so is the FFS baseline, whose every point
// must recover too. The result is work: workload operations executed
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
	"lfs/internal/disk"
	"lfs/internal/ffs"
	"lfs/internal/fstest"
	"lfs/internal/vfs"
)

// CrashConfig is the LFS configuration the crash sweeps run: 64 KB
// segments and a 64-block cache, so a modest workload produces many log
// units, segment advances, cleaner passes and checkpoints — and
// therefore many distinct crash points.
func CrashConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SegmentSize = 64 << 10
	cfg.CacheBlocks = 64
	cfg.MaxInodes = 512
	return cfg
}

// LFSTarget is LFS under the crash battery: recovery is the checkpoint
// plus a roll-forward of the log tail, so cfg.RollForward must be on; a
// step that completed a checkpoint acknowledges everything before it,
// and so does a returned Sync.
func LFSTarget(cfg core.Config) fstest.Target {
	noroll := cfg
	noroll.RollForward = false
	return fstest.Target{
		Format: func(d *disk.Disk) (vfs.FileSystem, error) {
			if err := core.Format(d, cfg); err != nil {
				return nil, err
			}
			return core.Mount(d, cfg)
		},
		Mount: func(d *disk.Disk) (vfs.FileSystem, bool, error) {
			fs, err := core.Mount(d, cfg)
			if err != nil {
				return nil, false, err
			}
			return fs, fs.Stats().RollForwardUnits > 0, nil
		},
		MountCheckpoint: func(d *disk.Disk) (vfs.FileSystem, error) { return core.Mount(d, noroll) },
		Check:           func(fs vfs.FileSystem) (*vfs.CheckReport, error) { return fs.(*core.FS).Check() },
		Fsck:            func(d *disk.Disk) (*vfs.CheckReport, error) { return core.Fsck(d, cfg) },
		Clean: func(fs vfs.FileSystem) error {
			_, err := fs.(*core.FS).CleanOnce()
			return err
		},
		Checkpoints: func(fs vfs.FileSystem) int64 { return fs.(*core.FS).Stats().Checkpoints },
	}
}

// FFSTarget is the FFS baseline under the crash battery: recovery is
// fsck, then mount. Each returned create, mkdir, remove, link or rename
// has written its directory blocks synchronously, so its names are
// durable; a file's bytes are durable only as of the last returned Sync.
// FFS has no cleaner and no checkpoint-only mount.
func FFSTarget(cfg ffs.Config) fstest.Target {
	fsck := func(d *disk.Disk) (*vfs.CheckReport, error) { return ffs.Fsck(d, cfg) }
	return fstest.Target{
		Format: func(d *disk.Disk) (vfs.FileSystem, error) {
			if err := ffs.Format(d, cfg); err != nil {
				return nil, err
			}
			return ffs.Mount(d, cfg)
		},
		Mount: func(d *disk.Disk) (vfs.FileSystem, bool, error) {
			if _, err := fsck(d); err != nil {
				return nil, false, err
			}
			fs, err := ffs.Mount(d, cfg)
			return fs, false, err
		},
		// Every write FFS has not done yet waits in its cache, so a check
		// of a volume with nothing dirty reads what fsck would.
		Check: func(fs vfs.FileSystem) (*vfs.CheckReport, error) { return fsck(fs.(*ffs.FS).Disk()) },
		Fsck:  fsck,
		Names: true,
	}
}

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
	cfg := CrashConfig()
	// The workload must be long enough that replaying it dwarfs the
	// per-point verification cost both strategies share. Churn rounds
	// extend the write stream without growing the live set (and hence
	// the verification walk).
	const files, churn, snapStride, replayStride = 32, 40, 3, 24
	base := fstest.CrashConfig{
		Target:       LFSTarget(cfg),
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

	// The FFS baseline on the same workload, torn like LFS's arms:
	// recovery is fsck's repair, then mount.
	ffsCfg := base
	ffsCfg.Target = FFSTarget(ffs.DefaultConfig())
	ffsCfg.Stride = snapStride
	ffsRep, err := fstest.RunCrashPoints(ffsCfg)
	if err != nil {
		return Result{}, fmt.Errorf("ffs sweep: %w", err)
	}

	// The strategies must agree on the workload and every sweep recover
	// cleanly; a failure here is a harness bug, not a perf result.
	if snap.TotalWrites != replay.TotalWrites {
		return Result{}, fmt.Errorf("strategies disagree on write count: snapshot %d, replay %d",
			snap.TotalWrites, replay.TotalWrites)
	}
	var b strings.Builder
	failures := append(append(snap.Failures, replay.Failures...), ffsRep.Failures...)
	for _, f := range failures {
		fmt.Fprintf(&b, "  FAIL %s\n", f)
	}
	if len(failures) > 0 {
		return Result{Text: b.String()}, fmt.Errorf("crash sweep found %d recovery failures", len(failures))
	}

	snapOps := float64(snap.OpsExecuted) / float64(snap.Points)
	replayOps := float64(replay.OpsExecuted) / float64(replay.Points)
	workRatio := replayOps / snapOps
	fmt.Fprintf(&b, "workload: %d ops, %d disk writes\n", len(base.Workload), snap.TotalWrites)
	fmt.Fprintf(&b, "snapshot: %4d points (%d rolled forward)\n", snap.Points, snap.RollForwardPoints)
	fmt.Fprintf(&b, "replay:   %4d points (stride %d)\n", replay.Points, replayStride)
	fmt.Fprintf(&b, "work:     %.1f vs %.1f ops executed per point, %.1fx (floor %.0fx)\n",
		replayOps, snapOps, workRatio, minCrashSweepSpeedup)
	fmt.Fprintf(&b, "ffs:      %4d points of %d disk writes (stride %d), %d failures\n",
		ffsRep.Points, ffsRep.TotalWrites, snapStride, len(ffsRep.Failures))
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
		"ffs_points":            ffsRep.Points,
		"ffs_failures":          len(ffsRep.Failures),
		"speedup_floor_met":     1,
	}
	return res, nil
}
