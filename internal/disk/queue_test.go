package disk

import (
	"testing"

	"lfs/internal/sim"
)

// queueTestDisk builds a small memory disk for the request-order tests.
func queueTestDisk(t *testing.T) *Disk {
	t.Helper()
	return NewMem(32<<20, sim.NewClock())
}

// scatter returns sector addresses spread across the disk, far apart
// in cylinders, in a deliberately bad (alternating extremes) order.
func scatter(d *Disk, n int) []int64 {
	total := d.Sectors()
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		var s int64
		if i%2 == 0 {
			s = int64(i/2+1) * 64
		} else {
			s = total - int64(i/2+1)*64
		}
		out = append(out, s)
	}
	return out
}

// TestFCFSMatchesSerialTimeline verifies arrival-order service: a run
// of asynchronous writes produces the same busy horizon and statistics
// as the same writes issued one blocking request at a time.
func TestFCFSMatchesSerialTimeline(t *testing.T) {
	buf := make([]byte, 2*SectorSize)
	run := func(sync bool) (sim.Time, Stats) {
		d := queueTestDisk(t)
		for _, s := range scatter(d, 8) {
			if err := d.WriteSectors(s, buf, sync, CauseOther, "q"); err != nil {
				t.Fatal(err)
			}
		}
		end := d.Drain()
		return end, d.Stats()
	}
	asyncEnd, asyncStats := run(false)
	syncEnd, syncStats := run(true)
	if asyncEnd != syncEnd {
		t.Errorf("async end %v != serial sync end %v", asyncEnd, syncEnd)
	}
	if asyncStats.BusyTime != syncStats.BusyTime {
		t.Errorf("async busy %v != serial busy %v", asyncStats.BusyTime, syncStats.BusyTime)
	}
	if asyncStats.Seeks != syncStats.Seeks {
		t.Errorf("async seeks %d != serial seeks %d", asyncStats.Seeks, syncStats.Seeks)
	}
}

// TestQueueBarriers verifies that nothing waits for a barrier: Stats
// counts every asynchronous write as soon as it is issued, and a
// blocking read issued after asynchronous writes is served after them.
func TestQueueBarriers(t *testing.T) {
	d := queueTestDisk(t)
	buf := make([]byte, 2*SectorSize)
	if d.MaxQueueDepth() != 0 {
		t.Errorf("max queue depth %d before any write, want 0", d.MaxQueueDepth())
	}
	for _, s := range scatter(d, 4) {
		if err := d.WriteSectors(s, buf, false, CauseOther, "q"); err != nil {
			t.Fatal(err)
		}
	}
	if d.QueueDepth() != 0 || d.MaxQueueDepth() != 1 {
		t.Errorf("queue depth %d (max %d) after asynchronous writes, want 0 (max 1)", d.QueueDepth(), d.MaxQueueDepth())
	}
	if got := d.Stats().Writes; got != 4 {
		t.Errorf("Stats saw %d writes, want 4", got)
	}
	for _, s := range scatter(d, 4) {
		if err := d.WriteSectors(s, buf, false, CauseOther, "q"); err != nil {
			t.Fatal(err)
		}
	}
	writesDone := d.busyUntil
	var read Event
	d.SetTracer(tracerFunc(func(ev Event) { read = ev }))
	if err := d.ReadSectors(0, buf, CauseOther, "barrier read"); err != nil {
		t.Fatal(err)
	}
	if read.Kind != OpRead || read.Time != writesDone {
		t.Errorf("blocking read started at %v, want %v (when the eight writes before it complete)", read.Time, writesDone)
	}
	if got := d.Stats().Writes; got != 8 {
		t.Errorf("writes after the blocking read %d, want 8", got)
	}
}

// TestClientLabel verifies SetClient stamps events.
func TestClientLabel(t *testing.T) {
	d := queueTestDisk(t)
	var evs []Event
	d.SetTracer(tracerFunc(func(ev Event) { evs = append(evs, ev) }))
	buf := make([]byte, SectorSize)
	d.SetClient(7)
	if err := d.WriteSectors(0, buf, false, CauseOther, "w"); err != nil {
		t.Fatal(err)
	}
	d.SetClient(3)
	if err := d.ReadSectors(0, buf, CauseOther, "r"); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	if len(evs) != 2 || evs[0].Client != 7 || evs[1].Client != 3 {
		t.Errorf("client labels wrong: %+v", evs)
	}
}
