package fstest_test

import (
	"reflect"
	"testing"

	"lfs/internal/experiments"
	"lfs/internal/fstest"
)

// TestCrashPointStrategiesAgree cross-checks the two sweep strategies:
// restoring a pre-write snapshot must reconstruct exactly the image a
// full workload replay leaves behind, so the reports — every counter
// and every failure — must match field for field. The generated stream
// holds the replay path to the error class each failing op returned
// while recording.
func TestCrashPointStrategiesAgree(t *testing.T) {
	cfg := experiments.CrashConfig()
	mixed, generated := fstest.MixedWorkload(10, cfg.BlockSize), fstest.RandomWorkload(3, 300)
	for _, tc := range []struct {
		name     string
		workload []fstest.Op
		torn     bool
	}{
		{"lost", mixed, false},
		{"torn", mixed, true},
		{"generated-lost", generated, false},
		{"generated-torn", generated, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := fstest.CrashConfig{
				Target:       experiments.LFSTarget(cfg),
				DiskCapacity: 8 << 20,
				Workload:     tc.workload,
				Torn:         tc.torn,
				Stride:       7,
			}
			snapCfg, replayCfg := base, base
			replayCfg.Replay = true
			snap, err := fstest.RunCrashPoints(snapCfg)
			if err != nil {
				t.Fatalf("snapshot sweep: %v", err)
			}
			replay, err := fstest.RunCrashPoints(replayCfg)
			if err != nil {
				t.Fatalf("replay sweep: %v", err)
			}
			if snap.SnapshotPoints != snap.Points {
				t.Errorf("snapshot sweep used snapshots for %d of %d points", snap.SnapshotPoints, snap.Points)
			}
			if replay.SnapshotPoints != 0 {
				t.Errorf("replay sweep reported %d snapshot points", replay.SnapshotPoints)
			}
			// The snapshot sweep runs the workload once; replay runs it
			// once to record, then a prefix of it per point.
			if want := int64(len(base.Workload)); snap.OpsExecuted != want {
				t.Errorf("snapshot sweep executed %d ops, want the recording pass's %d", snap.OpsExecuted, want)
			}
			if lo, hi := snap.OpsExecuted+int64(replay.Points), snap.OpsExecuted*int64(1+replay.Points); replay.OpsExecuted < lo || replay.OpsExecuted > hi {
				t.Errorf("replay sweep executed %d ops over %d points, want within [%d, %d]", replay.OpsExecuted, replay.Points, lo, hi)
			}
			// SnapshotPoints and OpsExecuted are the only fields allowed
			// to differ.
			snapCopy := *snap
			snapCopy.SnapshotPoints, snapCopy.OpsExecuted = 0, replay.OpsExecuted
			if !reflect.DeepEqual(&snapCopy, replay) {
				t.Errorf("strategies diverged:\nsnapshot: %+v\nreplay:   %+v", snapCopy, *replay)
			}
		})
	}
}
