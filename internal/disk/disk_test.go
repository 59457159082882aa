package disk

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"lfs/internal/sim"
)

func newTestDisk(t *testing.T, capacity int64) *Disk {
	t.Helper()
	return NewMem(capacity, sim.NewClock())
}

func TestGeometryForCapacity(t *testing.T) {
	g := GeometryForCapacity(300 << 20)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.TotalBytes() < 300<<20 {
		t.Fatalf("TotalBytes = %d, want >= 300MB", g.TotalBytes())
	}
	// The last sector must map to the last cylinder.
	if c := g.CylinderOf(g.TotalSectors() - 1); c != g.Cylinders-1 {
		t.Fatalf("CylinderOf(last) = %d, want %d", c, g.Cylinders-1)
	}
}

func TestWrenIVAverageSeek(t *testing.T) {
	m := WrenIVModel()
	g := GeometryForCapacity(300 << 20)
	// Mean cylinder distance of uniformly random pairs is ~stroke/3;
	// the model is calibrated so that seek at that distance is the
	// published 17.5 ms average.
	avg := m.SeekTime(g.Cylinders/3, g.Cylinders)
	if avg < 16*sim.Millisecond || avg > 19*sim.Millisecond {
		t.Fatalf("seek at mean distance = %v, want ~17.5ms", avg)
	}
	if m.SeekTime(0, g.Cylinders) != 0 {
		t.Fatal("zero-distance seek should be free")
	}
	if m.SeekTime(1, g.Cylinders) < m.MinSeek {
		t.Fatal("single-cylinder seek below MinSeek")
	}
	if got := m.SeekTime(g.Cylinders-1, g.Cylinders); got != m.MaxSeek {
		t.Fatalf("full-stroke seek = %v, want MaxSeek %v", got, m.MaxSeek)
	}
}

func TestTransferTimeMatchesBandwidth(t *testing.T) {
	m := WrenIVModel()
	// 1.3 MB at 1.3 MB/s is one second.
	if got := m.TransferTime(1_300_000); got != sim.Second {
		t.Fatalf("TransferTime(1.3MB) = %v, want 1s", got)
	}
	if m.TransferTime(0) != 0 || m.TransferTime(-4) != 0 {
		t.Fatal("non-positive transfer should be free")
	}
}

func TestDiskReadWriteRoundTrip(t *testing.T) {
	d := newTestDisk(t, 4<<20)
	want := bytes.Repeat([]byte{0x5A}, 4096)
	if err := d.WriteSectors(100, want, true, CauseOther, "test"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := d.ReadSectors(100, got, CauseOther, "test"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch")
	}
}

func TestDiskRejectsMisalignedAndOutOfRange(t *testing.T) {
	d := newTestDisk(t, 1<<20)
	if err := d.WriteSectors(0, make([]byte, 100), true, CauseOther, ""); err == nil {
		t.Fatal("misaligned write succeeded")
	}
	if err := d.ReadSectors(0, nil, CauseOther, ""); err == nil {
		t.Fatal("empty read succeeded")
	}
	if err := d.ReadSectors(d.Sectors(), make([]byte, 512), CauseOther, ""); err == nil {
		t.Fatal("read past end succeeded")
	}
	if err := d.WriteSectors(-1, make([]byte, 512), false, CauseOther, ""); err == nil {
		t.Fatal("negative-sector write succeeded")
	}
}

func TestSequentialIOFasterThanRandom(t *testing.T) {
	clock := sim.NewClock()
	d := NewMem(64<<20, clock)
	block := make([]byte, 4096)

	// Sequential: 256 back-to-back blocks.
	start := clock.Now()
	sector := int64(0)
	for i := 0; i < 256; i++ {
		if err := d.WriteSectors(sector, block, true, CauseOther, ""); err != nil {
			t.Fatal(err)
		}
		sector += 8
	}
	seqTime := clock.Now().Sub(start)

	// Random: 256 widely scattered blocks.
	start = clock.Now()
	for i := 0; i < 256; i++ {
		s := int64((i * 104729) % int(d.Sectors()-8)) // large prime scatter
		s -= s % 8
		if err := d.WriteSectors(s, block, true, CauseOther, ""); err != nil {
			t.Fatal(err)
		}
	}
	randTime := clock.Now().Sub(start)

	if ratio := float64(randTime) / float64(seqTime); ratio < 5 {
		t.Fatalf("random/sequential = %.1f, want order-of-magnitude gap (>5)", ratio)
	}
}

func TestAsyncWriteDoesNotBlockCaller(t *testing.T) {
	clock := sim.NewClock()
	d := NewMem(16<<20, clock)
	seg := make([]byte, 1<<20)

	before := clock.Now()
	if err := d.WriteSectors(0, seg, false, CauseOther, "segment"); err != nil {
		t.Fatal(err)
	}
	if clock.Now() != before {
		t.Fatalf("async write advanced caller clock by %v", clock.Now().Sub(before))
	}
	if d.busyUntil <= before {
		t.Fatal("async write did not extend busy horizon")
	}
	d.Drain()
	if clock.Now() != d.busyUntil {
		t.Fatal("Drain did not advance clock to busy horizon")
	}
	// A 1MB transfer at 1.3MB/s takes ~769ms plus positioning.
	if got := clock.Now().Sub(before); got < 700*sim.Millisecond || got > 900*sim.Millisecond {
		t.Fatalf("1MB segment write took %v, want ~770ms", got)
	}
}

func TestSyncWriteBlocksCaller(t *testing.T) {
	clock := sim.NewClock()
	d := NewMem(16<<20, clock)
	before := clock.Now()
	if err := d.WriteSectors(5000, make([]byte, 4096), true, CauseOther, "inode"); err != nil {
		t.Fatal(err)
	}
	if clock.Now() == before {
		t.Fatal("sync write did not advance clock")
	}
	if clock.Now() != d.busyUntil {
		t.Fatal("sync write left clock behind busy horizon")
	}
}

func TestQueuedAsyncWritesSerialize(t *testing.T) {
	clock := sim.NewClock()
	d := NewMem(16<<20, clock)
	// Two async writes: the second starts after the first finishes.
	if err := d.WriteSectors(0, make([]byte, 1<<20), false, CauseOther, ""); err != nil {
		t.Fatal(err)
	}
	first := d.busyUntil
	if err := d.WriteSectors(2048, make([]byte, 1<<20), false, CauseOther, ""); err != nil {
		t.Fatal(err)
	}
	if d.busyUntil <= first {
		t.Fatal("second async write did not queue behind the first")
	}
}

func TestStatsAccounting(t *testing.T) {
	d := newTestDisk(t, 16<<20)
	block := make([]byte, 4096)
	if err := d.WriteSectors(0, block, true, CauseOther, ""); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSectors(8, block, false, CauseOther, ""); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadSectors(0, block, CauseOther, ""); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Writes != 2 || s.SyncWrites != 1 || s.Reads != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.SectorsWritten != 16 || s.SectorsRead != 8 {
		t.Fatalf("sector counts = %+v", s)
	}
	if s.BytesWritten() != 16*512 || s.BytesRead() != 8*512 {
		t.Fatal("byte helpers wrong")
	}
	if s.BusyTime <= 0 {
		t.Fatal("busy time not accumulated")
	}
	snap := d.Stats()
	if err := d.ReadSectors(0, block, CauseOther, ""); err != nil {
		t.Fatal(err)
	}
	delta := d.Stats().Sub(snap)
	if delta.Reads != 1 || delta.Writes != 0 {
		t.Fatalf("Sub delta = %+v", delta)
	}
	if d.Stats().String() == "" {
		t.Fatal("empty Stats.String")
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	d := newTestDisk(t, 16<<20)
	var events []Event
	d.SetTracer(tracerFunc(func(ev Event) { events = append(events, ev) }))
	if err := d.WriteSectors(40, make([]byte, 4096), true, CauseOther, "inode"); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSectors(48, make([]byte, 4096), false, CauseOther, "data"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Label != "inode" || !events[0].Sync || events[0].Kind != OpWrite {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if events[1].Label != "data" || events[1].Sync {
		t.Fatalf("event 1 = %+v", events[1])
	}
	if !events[1].Sequential {
		t.Fatal("back-to-back write not marked sequential")
	}
	if events[0].Sequential {
		t.Fatal("first-ever request marked sequential")
	}
	d.SetTracer(nil)
	if err := d.ReadSectors(40, make([]byte, 4096), CauseOther, ""); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatal("detached tracer still receiving events")
	}
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("OpKind.String wrong")
	}
}

type tracerFunc func(Event)

func (f tracerFunc) Record(ev Event) { f(ev) }

// sectorFaults is a FaultPolicy addressed by sector, not by sequence
// number: reads starting at badRead fail, and the next write (once
// tearNext is set) persists only its leading half while reporting
// success — a tear without a power cut, which CrashPlan cannot script.
type sectorFaults struct {
	badRead  int64
	readErr  error
	tearNext bool
}

func (p *sectorFaults) Read(op ReadOp) error {
	if p.readErr != nil && op.Sector == p.badRead {
		return p.readErr
	}
	return nil
}

func (p *sectorFaults) Write(op WriteOp) WriteDecision {
	if !p.tearNext {
		return WriteDecision{}
	}
	p.tearNext = false
	return WriteDecision{Action: WriteTear, KeepSectors: op.Sectors / 2}
}

func TestPolicyReadErrorBySector(t *testing.T) {
	d := newTestDisk(t, 16<<20)
	boom := errors.New("media failure")
	d.SetFaultPolicy(&sectorFaults{badRead: 16, readErr: boom})
	err := d.ReadSectors(16, make([]byte, 512), CauseOther, "")
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected media failure", err)
	}
	// Other sectors unaffected.
	if err := d.ReadSectors(0, make([]byte, 512), CauseOther, ""); err != nil {
		t.Fatal(err)
	}
	d.SetFaultPolicy(nil)
	if err := d.ReadSectors(16, make([]byte, 512), CauseOther, ""); err != nil {
		t.Fatal("fault survived detaching the policy")
	}
}

func TestTornWrite(t *testing.T) {
	d := newTestDisk(t, 16<<20)
	old := bytes.Repeat([]byte{0x11}, 8192)
	if err := d.WriteSectors(0, old, true, CauseOther, ""); err != nil {
		t.Fatal(err)
	}
	d.SetFaultPolicy(&sectorFaults{tearNext: true})
	updated := bytes.Repeat([]byte{0x22}, 8192)
	if err := d.WriteSectors(0, updated, true, CauseOther, ""); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8192)
	if err := d.ReadSectors(0, got, CauseOther, ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:4096], updated[:4096]) {
		t.Fatal("torn write did not persist its first half")
	}
	if !bytes.Equal(got[4096:], old[4096:]) {
		t.Fatal("torn write persisted its second half")
	}
	// Only the one write tears.
	if err := d.WriteSectors(0, updated, true, CauseOther, ""); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadSectors(0, got, CauseOther, ""); err != nil || !bytes.Equal(got, updated) {
		t.Fatalf("write after the tear did not persist whole (err %v)", err)
	}
}

// TestFailedWritesRecover: writes fail from an injected fault on and
// work again once the fault is lifted (a power cut, then a reboot).
func TestFailedWritesRecover(t *testing.T) {
	d := newTestDisk(t, 16<<20)
	d.SetFaultPolicy(&CrashPlan{CutWrite: 1})
	for i := 0; i < 2; i++ {
		if err := d.WriteSectors(0, make([]byte, 512), true, CauseOther, ""); !errors.Is(err, ErrPowerLoss) {
			t.Fatalf("write %d under the fault: err = %v, want ErrPowerLoss", i, err)
		}
	}
	d.SetFaultPolicy(nil)
	d.Thaw()
	if err := d.WriteSectors(0, make([]byte, 512), true, CauseOther, ""); err != nil {
		t.Fatal(err)
	}
}

// TestFreezeThaw: a power cut freezes the disk for reads and writes
// alike, and Thaw brings back what was written before the cut.
func TestFreezeThaw(t *testing.T) {
	d := newTestDisk(t, 16<<20)
	want := bytes.Repeat([]byte{9}, 512)
	if err := d.WriteSectors(0, want, true, CauseOther, ""); err != nil {
		t.Fatal(err)
	}
	d.SetFaultPolicy(&CrashPlan{CutWrite: 1})
	if err := d.WriteSectors(0, make([]byte, 512), true, CauseOther, ""); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("the cut write: err = %v, want ErrPowerLoss", err)
	}
	d.SetFaultPolicy(nil)
	if err := d.ReadSectors(0, make([]byte, 512), CauseOther, ""); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("read on frozen disk: err = %v, want ErrPowerLoss", err)
	}
	if err := d.WriteSectors(0, make([]byte, 512), true, CauseOther, ""); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("write on frozen disk: err = %v, want ErrPowerLoss", err)
	}
	d.Thaw()
	got := make([]byte, 512)
	if err := d.ReadSectors(0, got, CauseOther, ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("pre-crash data lost across freeze/thaw")
	}
}

func TestNewValidation(t *testing.T) {
	clock := sim.NewClock()
	geom := GeometryForCapacity(1 << 20)
	perf := WrenIVModel()
	if _, err := New(nil, geom, perf, clock); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := New(NewMemStore(1), geom, perf, clock); err == nil {
		t.Fatal("undersized store accepted")
	}
	if _, err := New(NewMemStore(geom.TotalBytes()), Geometry{}, perf, clock); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	if _, err := New(NewMemStore(geom.TotalBytes()), geom, PerfModel{}, clock); err == nil {
		t.Fatal("invalid perf model accepted")
	}
	if _, err := New(NewMemStore(geom.TotalBytes()), geom, perf, nil); err == nil {
		t.Fatal("nil clock accepted")
	}
}

// Property: seek time is monotone non-decreasing in distance and
// bounded by [0, MaxSeek].
func TestSeekTimeMonotoneProperty(t *testing.T) {
	m := WrenIVModel()
	const cyls = 2000
	f := func(a, b uint16) bool {
		da, db := int(a)%cyls, int(b)%cyls
		ta, tb := m.SeekTime(da, cyls), m.SeekTime(db, cyls)
		if da <= db && ta > tb {
			return false
		}
		return ta >= 0 && ta <= m.MaxSeek
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: transfer time is additive-monotone — moving more bytes
// never takes less time, and doubling the bytes doubles the time.
func TestTransferTimeLinearProperty(t *testing.T) {
	m := WrenIVModel()
	f := func(n uint16) bool {
		nb := int64(n) + 1
		t1 := m.TransferTime(nb)
		t2 := m.TransferTime(2 * nb)
		diff := int64(t2) - 2*int64(t1)
		if diff < 0 {
			diff = -diff
		}
		return diff <= 2 // ns rounding
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the simulated clock never goes backwards across any
// sequence of mixed disk operations, and busyUntil >= the clock after
// any blocking op.
func TestDiskTimeMonotoneProperty(t *testing.T) {
	type op struct {
		Sector uint16
		Write  bool
		Sync   bool
	}
	f := func(ops []op) bool {
		clock := sim.NewClock()
		d := NewMem(8<<20, clock)
		buf := make([]byte, 4096)
		prev := clock.Now()
		for _, o := range ops {
			sector := int64(o.Sector) % (d.Sectors() - 8)
			var err error
			if o.Write {
				err = d.WriteSectors(sector, buf, o.Sync, CauseOther, "prop")
			} else {
				err = d.ReadSectors(sector, buf, CauseOther, "prop")
			}
			if err != nil {
				return false
			}
			if clock.Now() < prev {
				return false
			}
			if !o.Write || o.Sync {
				// Blocking ops leave the disk free no later than now.
				if d.busyUntil > clock.Now() {
					return false
				}
			}
			prev = clock.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
