package fstest

import "testing"

// TestFloorCountsReturnedSync: a step that returned from Sync
// acknowledges everything before it, so the durable floor reaches it
// once all of its writes persisted — no checkpoint needed. A step that
// completed a checkpoint moves the floor the same way.
func TestFloorCountsReturnedSync(t *testing.T) {
	r := &crashRunner{
		cfg: CrashConfig{Workload: []Op{
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
	// The create's write 1 completes a checkpoint.
	r.stepWrites, r.stepCkpts = []int64{1, 1, 3, 3}, []int64{1, 1, 1, 1}
	if got := r.floorFor(2); got != 0 {
		t.Errorf("after the checkpoint: floor %d, want 0", got)
	}
}
