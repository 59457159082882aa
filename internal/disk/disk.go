package disk

import (
	"fmt"

	"lfs/internal/sim"
)

// OpKind distinguishes reads from writes in statistics and traces.
type OpKind int

// The two request kinds.
const (
	OpRead OpKind = iota
	OpWrite
)

// String returns "read" or "write".
func (k OpKind) String() string {
	if k == OpRead {
		return "read"
	}
	return "write"
}

// IOCause attributes a disk request to the file-system activity that
// issued it. The paper's evaluation (Figures 3-5) decomposes disk time
// into exactly these categories — log writes vs cleaning vs checkpoints
// vs read misses — so every request names its cause and the disk keeps
// an exact per-cause busy-time decomposition in Stats.ByCause.
type IOCause uint8

// The request causes. CauseOther is the zero value, used by callers
// outside the two file systems (raw device tests, tools that bypass
// the mounted FS); everything the file systems issue is named.
const (
	// CauseOther is unattributed traffic.
	CauseOther IOCause = iota
	// CauseLogAppend is an LFS segment write of new data (the normal
	// asynchronous log transfer, §4.1).
	CauseLogAppend
	// CauseCleanerRead is the cleaner's phase-one segment read
	// (§4.3.2).
	CauseCleanerRead
	// CauseCleanerWrite is a segment write issued while the cleaner
	// is relocating live blocks (§4.3.2 phase two).
	CauseCleanerWrite
	// CauseCheckpoint is a checkpoint-region write (§4.4.1).
	CauseCheckpoint
	// CauseInodeMap is inode and inode-map traffic: reading inodes
	// through the map and loading map blocks at mount (§4.2.1).
	CauseInodeMap
	// CauseReadMiss is a file, directory, or indirect block read
	// serving a cache miss.
	CauseReadMiss
	// CauseSyncWrite is an FFS synchronous metadata write (the
	// creat/unlink inode and directory writes of Figure 1).
	CauseSyncWrite
	// CauseWriteback is an FFS delayed asynchronous write-back.
	CauseWriteback
	// CauseRecovery is mount-time recovery traffic: superblock and
	// checkpoint-region reads plus roll-forward log reads (§4.4).
	CauseRecovery
	// CauseFormat is mkfs initialisation.
	CauseFormat
	// CauseTool is offline tool traffic (lfsdump, fsck image scans).
	CauseTool

	// NumCauses bounds the cause space; Stats.ByCause is indexed by
	// cause.
	NumCauses
)

// causeNames indexes IOCause.String.
var causeNames = [NumCauses]string{
	"other", "log-append", "cleaner-read", "cleaner-write", "checkpoint",
	"inode-map", "read-miss", "sync-write", "writeback", "recovery",
	"format", "tool",
}

// String returns the cause's stable name (used in traces and JSONL
// exports; tools parse these).
func (c IOCause) String() string {
	if c >= NumCauses {
		return fmt.Sprintf("cause(%d)", int(c))
	}
	return causeNames[c]
}

// ParseIOCause maps a cause name back to its value, for trace readers.
func ParseIOCause(s string) (IOCause, bool) {
	for i, n := range causeNames {
		if n == s {
			return IOCause(i), true
		}
	}
	return CauseOther, false
}

// Event describes one disk request, for tracing (Figures 1 and 2 of
// the paper are rendered from these events).
type Event struct {
	// Time is the simulated time the request was issued.
	Time sim.Time
	// Kind is read or write.
	Kind OpKind
	// Sector is the first sector of the request.
	Sector int64
	// Sectors is the request length in sectors.
	Sectors int
	// Sync reports whether the issuing process blocked on the
	// request (true for all reads).
	Sync bool
	// Sequential reports whether the request continued exactly
	// where the previous one ended (no seek, no rotational delay).
	Sequential bool
	// SeekCylinders is the head movement the request paid for.
	SeekCylinders int
	// Service is the modelled service time of the request.
	Service sim.Duration
	// Wait is the request's queue wait: the time between issue and
	// the arm starting service (Time), spent behind earlier
	// transfers. Wait + Service is the request's life end to end;
	// Service alone still sums to Stats.BusyTime (waiting does not
	// occupy the arm).
	Wait sim.Duration
	// Cause attributes the request to the issuing activity.
	Cause IOCause
	// Label is the file-system-provided annotation ("inode",
	// "dir data", "segment", ...).
	Label string
	// Client is the issuing client's ID in multi-client runs
	// (SetClient); 0 when unattributed.
	Client int
	// Shard is the owning shard's 1-based ID in sharded multi-log
	// runs (SetShard); 0 when the disk belongs to an unsharded
	// instance.
	Shard int
}

// Tracer receives every disk request when attached via SetTracer.
type Tracer interface {
	Record(Event)
}

// Waiter receives the latency decomposition of every *blocking*
// request — the ones that advance the issuing caller's clock — split
// into queue wait (behind earlier queued transfers) and arm service
// time. The file systems feed these into per-operation phase
// attribution (internal/obs); queue+service equals the clock advance
// the caller observed, to the tick. Asynchronous writes never invoke
// the waiter: their wait is the disk's, not any caller's.
type Waiter interface {
	DiskWait(cause IOCause, queue, service sim.Duration)
}

// CauseStats accumulates per-cause request counters. The Busy fields
// across all causes sum exactly to Stats.BusyTime: every request is
// tagged with exactly one cause.
type CauseStats struct {
	// Requests counts disk requests attributed to the cause.
	Requests int64
	// Sectors counts sectors transferred for the cause.
	Sectors int64
	// Busy sums modelled service time charged to the cause.
	Busy sim.Duration
}

// Stats accumulates disk activity counters.
type Stats struct {
	// Reads and Writes count requests.
	Reads, Writes int64
	// SyncWrites counts writes the issuing process blocked on.
	SyncWrites int64
	// SectorsRead and SectorsWritten count transferred sectors.
	SectorsRead, SectorsWritten int64
	// Seeks counts requests that paid head movement or rotation
	// (i.e. non-sequential requests).
	Seeks int64
	// SeekCylinders sums head movement distance.
	SeekCylinders int64
	// BusyTime sums service time across all requests.
	BusyTime sim.Duration
	// ByCause decomposes the traffic by issuing activity; the Busy
	// fields sum exactly to BusyTime.
	ByCause [NumCauses]CauseStats
}

// BytesRead returns the read volume in bytes.
func (s Stats) BytesRead() int64 { return s.SectorsRead * SectorSize }

// BytesWritten returns the write volume in bytes.
func (s Stats) BytesWritten() int64 { return s.SectorsWritten * SectorSize }

// Sub returns the difference s - o, for measuring an interval between
// two snapshots.
func (s Stats) Sub(o Stats) Stats {
	out := Stats{
		Reads:          s.Reads - o.Reads,
		Writes:         s.Writes - o.Writes,
		SyncWrites:     s.SyncWrites - o.SyncWrites,
		SectorsRead:    s.SectorsRead - o.SectorsRead,
		SectorsWritten: s.SectorsWritten - o.SectorsWritten,
		Seeks:          s.Seeks - o.Seeks,
		SeekCylinders:  s.SeekCylinders - o.SeekCylinders,
		BusyTime:       s.BusyTime - o.BusyTime,
	}
	for c := range s.ByCause {
		out.ByCause[c] = CauseStats{
			Requests: s.ByCause[c].Requests - o.ByCause[c].Requests,
			Sectors:  s.ByCause[c].Sectors - o.ByCause[c].Sectors,
			Busy:     s.ByCause[c].Busy - o.ByCause[c].Busy,
		}
	}
	return out
}

// String summarises the counters on one line.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d (sync=%d) read=%dKB written=%dKB seeks=%d busy=%v",
		s.Reads, s.Writes, s.SyncWrites, s.BytesRead()/1024, s.BytesWritten()/1024, s.Seeks, s.BusyTime)
}

// Disk is a simulated sector-addressed block device. It is not safe
// for concurrent use; the owning file system serialises access.
type Disk struct {
	store Store
	geom  Geometry
	perf  PerfModel
	clock *sim.Clock

	// busyUntil is the time the disk arm becomes free; asynchronous
	// writes extend it without advancing the caller's clock.
	busyUntil sim.Time
	// nextSector is the sector immediately after the last transfer,
	// or -1 when the head position is unknown (fresh disk).
	nextSector int64

	// maxQueueDepth is what MaxQueueDepth reports: 1 once an
	// asynchronous write was issued.
	maxQueueDepth int
	// client labels requests with the issuing client ID (SetClient);
	// 0 means unattributed. shard labels them with the owning
	// shard's 1-based ID (SetShard); 0 means unsharded.
	client int
	shard  int

	stats  Stats
	tracer Tracer
	waiter Waiter
	// frozen rejects all traffic: a FaultPolicy power cut crashed the
	// machine and it has not rebooted (Thaw).
	frozen bool

	// policy, when non-nil, is consulted on every request; the
	// counters number requests since the policy was attached.
	policy       FaultPolicy
	policyWrites int64
	policyReads  int64
}

// New assembles a disk from its parts. The store must be at least as
// large as the geometry's capacity.
func New(store Store, geom Geometry, perf PerfModel, clock *sim.Clock) (*Disk, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := perf.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("disk: nil store")
	}
	if clock == nil {
		return nil, fmt.Errorf("disk: nil clock")
	}
	if store.Size() < geom.TotalBytes() {
		return nil, fmt.Errorf("disk: store size %d < geometry capacity %d", store.Size(), geom.TotalBytes())
	}
	return &Disk{store: store, geom: geom, perf: perf, clock: clock, nextSector: -1}, nil
}

// NewMem returns a memory-backed disk of at least the given capacity
// using the WREN IV performance model — the standard testbed of this
// repository's experiments.
func NewMem(capacity int64, clock *sim.Clock) *Disk {
	geom := GeometryForCapacity(capacity)
	d, err := New(NewMemStore(geom.TotalBytes()), geom, WrenIVModel(), clock)
	if err != nil {
		panic(err) // geometry and model are valid by construction
	}
	return d
}

// Clock returns the simulated clock the disk charges time against.
func (d *Disk) Clock() *sim.Clock { return d.clock }

// Geometry returns the disk geometry.
func (d *Disk) Geometry() Geometry { return d.geom }

// Capacity returns the usable capacity in bytes.
func (d *Disk) Capacity() int64 { return d.geom.TotalBytes() }

// Sectors returns the usable capacity in sectors.
func (d *Disk) Sectors() int64 { return d.geom.TotalSectors() }

// Stats returns a snapshot of the activity counters. Every issued
// request is in them: an asynchronous write is accounted when issued.
func (d *Disk) Stats() Stats { return d.stats }

// SetTracer attaches a tracer receiving every request; nil detaches.
func (d *Disk) SetTracer(t Tracer) { d.tracer = t }

// SetWaiter attaches a waiter receiving every blocking request's
// queue-wait/service split; nil detaches.
func (d *Disk) SetWaiter(w Waiter) { d.waiter = w }

// Drain advances the clock until every issued asynchronous write has
// completed, and returns the new current time.
func (d *Disk) Drain() sim.Time { return d.clock.AdvanceTo(d.busyUntil) }

// checkRange validates a request's alignment and bounds.
func (d *Disk) checkRange(sector int64, n int) error {
	if n == 0 || n%SectorSize != 0 {
		return fmt.Errorf("disk: request length %d not a positive multiple of the sector size", n)
	}
	count := int64(n / SectorSize)
	if sector < 0 || sector+count > d.geom.TotalSectors() {
		return fmt.Errorf("disk: request [%d,%d) outside disk of %d sectors", sector, sector+count, d.geom.TotalSectors())
	}
	return nil
}

// service computes the service time of a request and updates head
// position and statistics. It returns the modelled duration plus
// whether the request was sequential and the seek distance paid.
func (d *Disk) service(sector int64, nbytes int) (dur sim.Duration, sequential bool, seekCyl int) {
	sequential = d.nextSector == sector
	dur = d.perf.PerRequest + d.perf.TransferTime(int64(nbytes))
	if !sequential {
		from := 0
		if d.nextSector >= 0 {
			from = d.geom.CylinderOf(d.nextSector)
		}
		to := d.geom.CylinderOf(sector)
		seekCyl = to - from
		if seekCyl < 0 {
			seekCyl = -seekCyl
		}
		dur += d.perf.SeekTime(seekCyl, d.geom.Cylinders) + d.perf.RotationalLatency()
		d.stats.Seeks++
		d.stats.SeekCylinders += int64(seekCyl)
	}
	d.nextSector = sector + int64(nbytes/SectorSize)
	d.stats.BusyTime += dur
	return dur, sequential, seekCyl
}

// begin returns the request start time: the disk must be free and, for
// blocking requests, the caller must have reached that point too.
func (d *Disk) begin() sim.Time {
	return sim.MaxTime(d.clock.Now(), d.busyUntil)
}

func (d *Disk) trace(ev Event) {
	if d.tracer != nil {
		d.tracer.Record(ev)
	}
}

// ReadSectors performs a blocking read of len(p) bytes starting at the
// given sector, advancing the clock to the request's completion. The
// cause attributes the request in Stats.ByCause and traces; the label
// annotates traces.
func (d *Disk) ReadSectors(sector int64, p []byte, cause IOCause, label string) error {
	if d.frozen {
		return fmt.Errorf("disk: device is frozen (crashed): %w", ErrPowerLoss)
	}
	if err := d.checkRange(sector, len(p)); err != nil {
		return err
	}
	if d.policy != nil {
		d.policyReads++
		op := ReadOp{Seq: d.policyReads, Sector: sector, Sectors: len(p) / SectorSize, Label: label}
		if err := d.policy.Read(op); err != nil {
			return fmt.Errorf("disk: injected read fault at sector %d: %w", sector, err)
		}
	}
	if cause >= NumCauses {
		cause = CauseOther
	}
	issue := d.clock.Now()
	start := d.begin()
	dur, seq, seekCyl := d.service(sector, len(p))
	d.busyUntil = start.Add(dur)
	d.clock.AdvanceTo(d.busyUntil)
	d.stats.Reads++
	d.stats.SectorsRead += int64(len(p) / SectorSize)
	d.stats.ByCause[cause].Requests++
	d.stats.ByCause[cause].Sectors += int64(len(p) / SectorSize)
	d.stats.ByCause[cause].Busy += dur
	if d.waiter != nil {
		d.waiter.DiskWait(cause, start.Sub(issue), dur)
	}
	d.trace(Event{Time: start, Kind: OpRead, Sector: sector, Sectors: len(p) / SectorSize,
		Sync: true, Sequential: seq, SeekCylinders: seekCyl, Service: dur, Wait: start.Sub(issue),
		Cause: cause, Label: label, Client: d.client, Shard: d.shard})
	return d.store.ReadAt(p, sector*SectorSize)
}

// WriteSectors writes len(p) bytes starting at the given sector. When
// sync is true the clock advances to the request's completion (the
// issuing process blocks, as FFS does for inode and directory writes);
// otherwise only the disk's busy horizon is extended (LFS-style
// asynchronous segment writes that overlap computation).
func (d *Disk) WriteSectors(sector int64, p []byte, sync bool, cause IOCause, label string) error {
	if d.frozen {
		return fmt.Errorf("disk: device is frozen (crashed): %w", ErrPowerLoss)
	}
	if err := d.checkRange(sector, len(p)); err != nil {
		return err
	}
	var dec WriteDecision
	if d.policy != nil {
		d.policyWrites++
		dec = d.policy.Write(WriteOp{Seq: d.policyWrites, Sector: sector,
			Sectors: len(p) / SectorSize, Sync: sync, Label: label})
	}
	if dec.PowerCut {
		// Power dies during this transfer: persist whatever the
		// decision keeps, then refuse all further traffic. The
		// issuing process never observes completion, so no service
		// time is charged and no statistics are recorded.
		d.frozen = true
		keep := 0
		if dec.Action == WriteTear {
			keep = dec.KeepSectors
			if keep > len(p)/SectorSize {
				keep = len(p) / SectorSize
			}
		}
		if keep > 0 {
			if err := d.store.WriteAt(p[:keep*SectorSize], sector*SectorSize); err != nil {
				return err
			}
		}
		return fmt.Errorf("disk: power cut during write of sector %d: %w", sector, ErrPowerLoss)
	}
	if cause >= NumCauses {
		cause = CauseOther
	}
	// The disk serves requests in arrival order, so a write's service is
	// accounted when it is issued: it starts once the arm is free of
	// everything issued before it. A blocking write then advances the
	// caller's clock to its completion; an asynchronous one only extends
	// the busy horizon.
	issue := d.clock.Now()
	start := d.begin()
	dur, seq, seekCyl := d.service(sector, len(p))
	d.busyUntil = start.Add(dur)
	if sync {
		d.clock.AdvanceTo(d.busyUntil)
		d.stats.SyncWrites++
		if d.waiter != nil {
			d.waiter.DiskWait(cause, start.Sub(issue), dur)
		}
	} else {
		d.maxQueueDepth = 1
	}
	d.stats.Writes++
	d.stats.SectorsWritten += int64(len(p) / SectorSize)
	d.stats.ByCause[cause].Requests++
	d.stats.ByCause[cause].Sectors += int64(len(p) / SectorSize)
	d.stats.ByCause[cause].Busy += dur
	d.trace(Event{Time: start, Kind: OpWrite, Sector: sector, Sectors: len(p) / SectorSize,
		Sync: sync, Sequential: seq, SeekCylinders: seekCyl, Service: dur, Wait: start.Sub(issue),
		Cause: cause, Label: label, Client: d.client, Shard: d.shard})
	switch dec.Action {
	case WriteDrop:
		// Silently lost: the caller sees success, nothing persists.
		return nil
	case WriteTear:
		keep := dec.KeepSectors
		if keep > len(p)/SectorSize {
			keep = len(p) / SectorSize
		}
		if keep <= 0 {
			return nil
		}
		return d.store.WriteAt(p[:keep*SectorSize], sector*SectorSize)
	}
	return d.store.WriteAt(p, sector*SectorSize)
}

// Thaw re-enables traffic after a power cut froze the disk, as when a
// crashed machine reboots and remounts it. Data already written remains
// readable.
func (d *Disk) Thaw() { d.frozen = false }

// Store exposes the persistence backend, letting tools (lfsdump,
// lfsck) parse the raw image without going through the time model.
func (d *Disk) Store() Store { return d.store }

// Sync flushes the backing store to stable storage. The simulation's
// durability model is unchanged — writes persist at issue time — but
// file-backed images survive a host crash only after a Sync (tools
// call it before Close).
func (d *Disk) Sync() error {
	if d.frozen {
		return fmt.Errorf("disk: device is frozen (crashed): %w", ErrPowerLoss)
	}
	return d.store.Sync()
}

// Close releases the backing store.
func (d *Disk) Close() error { return d.store.Close() }
