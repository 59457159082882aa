package fstest

import (
	"testing"

	"lfs/internal/core"
)

// TestFloorCountsReturnedSync: on a volume that rolls forward, a step
// that returned from Sync acknowledges everything before it, so the
// durable floor reaches it once all of its writes persisted — no
// checkpoint needed. Without roll-forward only a checkpoint moves the
// floor.
func TestFloorCountsReturnedSync(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.RollForward = true
	r := &crashRunner{
		cfg: CrashConfig{FSConfig: cfg, Workload: []Op{
			{Kind: OpCreate, Path: "/f"},
			{Kind: OpWrite, Path: "/f", Data: []byte("one")},
			{Kind: OpSync},
			{Kind: OpWrite, Path: "/f", Data: []byte("two")},
		}},
		// The Sync issues writes 1..3; nothing checkpoints.
		stepWrites: []int64{0, 0, 3, 3},
		stepCkpts:  []int64{0, 0, 0, 0},
	}
	for _, tc := range []struct {
		cut  int64
		want int
	}{{1, -1}, {3, -1}, {4, 2}, {10, 2}} {
		if got := r.floorFor(tc.cut); got != tc.want {
			t.Errorf("cut at write %d: floor %d, want %d", tc.cut, got, tc.want)
		}
	}
	r.cfg.FSConfig.RollForward = false
	if got := r.floorFor(10); got != -1 {
		t.Errorf("without roll-forward: floor %d, want -1", got)
	}
}
