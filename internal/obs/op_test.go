package obs

import (
	"errors"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// newCapture stands up a capture the way a file system does: on a
// disk, charging a CPU, attached as the disk's waiter.
func newCapture(rec *Recorder, samp *Sampler) (*OpCapture, *disk.Disk, *sim.CPU) {
	clock := sim.NewClock()
	d := disk.NewMem(16<<20, clock)
	cpu := sim.NewCPU(sim.Sun4MIPS, clock)
	c := NewOpCapture(d, cpu, rec, samp)
	d.SetWaiter(c)
	return c, d, cpu
}

// TestOpCaptureExactness: waits parked before the operation, a
// blocking read behind a queued write, a drain and a bracket all land
// in one span whose phases sum to its latency to the tick, with the
// start backdated by exactly the parked total.
func TestOpCaptureExactness(t *testing.T) {
	rec := NewRecorder()
	c, d, cpu := newCapture(rec, nil)
	c.SetClient(7)
	c.SetShard(2)
	buf := make([]byte, 8*disk.SectorSize)

	cpu.Charge(1000) // time before the op: not the op's
	c.NoteWait(PhaseLockWait, 3*sim.Millisecond)
	c.NoteWait(PhaseFanout, 2*sim.Millisecond)
	c.NoteWait(PhaseFanout, 0) // ignored
	entered := d.Clock().Now()

	c.Begin()
	cpu.Charge(5000)
	if err := d.WriteSectors(0, buf, false, disk.CauseLogAppend, "queued"); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadSectors(4096, buf, disk.CauseReadMiss, "blocking"); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSectors(64, buf, false, disk.CauseLogAppend, "queued"); err != nil {
		t.Fatal(err)
	}
	c.DrainAs(PhaseCommitWait)
	t0 := c.Bracket()
	cpu.Charge(2000)
	if err := d.ReadSectors(8192, buf, disk.CauseCleanerRead, "inside bracket"); err != nil {
		t.Fatal(err)
	}
	c.EndBracket(t0, PhaseCleaner)
	if err := c.End("fsync", "/f", nil); err != nil {
		t.Fatalf("End(nil) = %v", err)
	}

	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans, want 1", len(spans))
	}
	s := spans[0]
	if !s.PhasesExact() {
		t.Fatalf("phases %+v do not sum to latency %v", s.Phases, s.Latency())
	}
	if want := entered.Add(-5 * sim.Millisecond); s.Start != want {
		t.Errorf("start = %v, want %v (entry backdated by the parked 5ms)", s.Start, want)
	}
	if s.Op != "fsync" || s.Path != "/f" || s.Client != 7 || s.Shard != 2 || s.CPU != 7000 || s.Err != "" {
		t.Errorf("span = %+v", s)
	}
	totals := PhaseTotals(s.Phases)
	if totals[PhaseLockWait] != 3*sim.Millisecond || totals[PhaseFanout] != 2*sim.Millisecond {
		t.Errorf("parked waits came out as %v", totals)
	}
	for _, k := range []PhaseKind{PhaseCPU, PhaseQueueWait, PhaseDiskService, PhaseCommitWait, PhaseCleaner} {
		if totals[k] <= 0 {
			t.Errorf("no %v time in %+v", k, s.Phases)
		}
	}
	for _, p := range s.Phases {
		if p.Kind == PhaseDiskService && p.Cause != disk.CauseReadMiss {
			t.Errorf("bracketed request leaked into disk_service: %+v", p)
		}
	}

	// The parked waits were consumed: the next span starts on entry.
	entered = d.Clock().Now()
	c.Begin()
	_ = c.End("stat", "/f", nil)
	if s := rec.Spans()[1]; s.Start != entered || len(s.Phases) != 0 {
		t.Errorf("second span = %+v, want zero latency from %v", s, entered)
	}
}

// TestOpCaptureError: a failing operation returns a *vfs.PathError
// naming the op and path, its span carries the message, and the
// metrics plane counts it.
func TestOpCaptureError(t *testing.T) {
	rec := NewRecorder()
	samp := NewSampler(sim.Second)
	c, _, cpu := newCapture(rec, samp)
	c.RegisterMetrics(samp.Registry())

	c.Begin()
	cpu.Charge(100)
	err := c.End("remove", "/gone", vfs.ErrNotExist)
	var pe *vfs.PathError
	if !errors.As(err, &pe) || pe.Op != "remove" || pe.Path != "/gone" || !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("End = %#v, want *vfs.PathError{remove /gone: ErrNotExist}", err)
	}
	s := rec.Spans()[0]
	if s.Err != err.Error() || !s.PhasesExact() {
		t.Errorf("span = %+v, want Err %q and exact phases", s, err)
	}
	samp.SampleNow(sim.Time(sim.Second))
	row := samp.Samples()[0]
	if row.Counters["ops"] != 1 || row.Counters["ops.errors"] != 1 {
		t.Errorf("counters = %v, want ops 1, ops.errors 1", row.Counters)
	}
}

// TestOpCaptureOffAllocatesNothing: with no recorder and no sampler
// the seam costs an operation no allocation, parked waits included.
func TestOpCaptureOffAllocatesNothing(t *testing.T) {
	c, _, cpu := newCapture(nil, nil)
	allocs := testing.AllocsPerRun(100, func() {
		c.NoteWait(PhaseLockWait, sim.Millisecond)
		c.Begin()
		cpu.Charge(10)
		if err := c.End("write", "/f", nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Begin/End with observability off allocates %v per op, want 0", allocs)
	}
}

// TestParkedWaitsHandOff: a router's parked waits move to the layer
// below whole, and only once.
func TestParkedWaitsHandOff(t *testing.T) {
	var router, below ParkedWaits
	router.NoteWait(PhaseLockWait, 4*sim.Millisecond)
	router.NoteWait(PhaseFanout, sim.Millisecond)
	router.NoteWait(NumPhaseKinds, sim.Millisecond) // out of range: ignored
	router.HandOff(&below)
	router.HandOff(&below)
	if below[PhaseLockWait] != 4*sim.Millisecond || below[PhaseFanout] != sim.Millisecond || router != (ParkedWaits{}) {
		t.Errorf("after hand-off: router %v, below %v", router, below)
	}
}
