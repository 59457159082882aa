package obs

import (
	"lfs/internal/disk"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// ParkedWaits holds wait that elapsed before an operation could enter
// the file system — scheduler dispatch gaps, a router's fan-out
// broadcast — until the operation that paid it arrives.
type ParkedWaits [NumPhaseKinds]sim.Duration

// NoteWait parks d of kind for the next operation.
func (p *ParkedWaits) NoteWait(kind PhaseKind, d sim.Duration) {
	if d > 0 && kind < NumPhaseKinds {
		p[kind] += d
	}
}

// HandOff moves every parked wait to dst — the layer about to execute
// the operation — and leaves p empty.
func (p *ParkedWaits) HandOff(dst interface{ NoteWait(PhaseKind, sim.Duration) }) {
	for k, d := range p {
		if d > 0 {
			dst.NoteWait(PhaseKind(k), d)
			p[k] = 0
		}
	}
}

// OpCapture is the one place where a VFS operation becomes a span: a
// file system holds one, calls Begin on entry to each exported
// operation and returns through End. Between the two, waits reach it
// from the disk (it is the disk's Waiter), from DrainAs and from
// brackets; End wraps the error as *vfs.PathError, derives the CPU
// residual so the phases sum to the latency to the tick, and feeds the
// recorder and the metrics plane. It reads only simulated clocks, so
// attaching it never changes the timeline. It does no locking: the
// owning file system's lock serialises every call (the disk calls
// DiskWait only from inside that file system's own requests).
type OpCapture struct {
	ParkedWaits

	d     *disk.Disk
	clock *sim.Clock
	cpu   *sim.CPU
	rec   *Recorder
	samp  *Sampler
	// client and shard label spans (0 = unattributed, unsharded).
	client, shard int

	// start and cpu0 are the running operation's entry samples, start
	// already backdated by the waits parked before it; phases is its
	// attribution so far, and bracketed drops DiskWait while a Bracket
	// is open.
	start     sim.Time
	cpu0      int64
	phases    PhaseAccum
	bracketed bool

	// The series RegisterMetrics exports; maintained only with a
	// sampler attached.
	opsDone, opsErr int64
	opLat           Histogram
	fsyncPhase      [NumPhaseKinds]Histogram
}

// NewOpCapture returns the capture for a file system on d charging
// cpu. rec and samp may each be nil; with both nil End only wraps the
// error.
func NewOpCapture(d *disk.Disk, cpu *sim.CPU, rec *Recorder, samp *Sampler) *OpCapture {
	c := &OpCapture{d: d, clock: d.Clock(), cpu: cpu, rec: rec, samp: samp}
	if samp != nil {
		c.opLat = NewLatencyHistogram()
		for k := range c.fsyncPhase {
			c.fsyncPhase[k] = NewLatencyHistogram()
		}
	}
	return c
}

// SetClient labels subsequent spans and disk events with a client ID.
func (c *OpCapture) SetClient(id int) {
	c.client = id
	c.d.SetClient(id)
}

// SetShard labels subsequent spans and disk events with a shard ID.
func (c *OpCapture) SetShard(id int) {
	c.shard = id
	c.d.SetShard(id)
}

// Begin opens an operation: attribution restarts, and the parked
// waits are credited to it and backdate its start by the same amount
// — the time really elapsed, just before the call.
func (c *OpCapture) Begin() {
	c.phases.Reset()
	c.start = c.clock.Now()
	for k, d := range &c.ParkedWaits {
		if d > 0 {
			c.phases.Add(PhaseKind(k), d)
			c.start = c.start.Add(-d)
			c.ParkedWaits[k] = 0
		}
	}
	c.cpu0 = c.cpu.Instructions()
}

// End closes the operation Begin opened and returns err wrapped with
// the operation and path (*vfs.PathError, or nil).
func (c *OpCapture) End(op, path string, err error) error {
	err = vfs.WrapPathError(op, path, err)
	if c.rec == nil && c.samp == nil {
		return err
	}
	now := c.clock.Now()
	phases := c.phases.Phases(now.Sub(c.start))
	if c.rec != nil {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		c.rec.Span(Span{Op: op, Path: path, Start: c.start, End: now,
			CPU: c.cpu.Instructions() - c.cpu0, Err: msg,
			Client: c.client, Shard: c.shard, Phases: phases})
	}
	if c.samp != nil {
		c.opsDone++
		if err != nil {
			c.opsErr++
		}
		c.opLat.Observe(now.Sub(c.start).Seconds())
		if op == "fsync" {
			// Observe every kind, zeros included: the series is the
			// distribution of that phase across all fsyncs, so an
			// fsync that paid no queue wait drags queue_wait.p95
			// down rather than being invisible to it.
			for k, d := range PhaseTotals(phases) {
				c.fsyncPhase[k].Observe(d.Seconds())
			}
		}
		c.samp.Tick(now)
	}
	return err
}

// DiskWait credits a blocking request's queue wait and service time to
// the running operation (disk.Waiter).
func (c *OpCapture) DiskWait(cause disk.IOCause, queue, service sim.Duration) {
	if !c.bracketed {
		c.phases.Add(PhaseQueueWait, queue)
		c.phases.AddService(cause, service)
	}
}

// Bracket opens a region — a cleaner activation — whose whole clock
// delta EndBracket credits to one kind. Requests issued inside it are
// not also credited through DiskWait, so the delta counts once.
func (c *OpCapture) Bracket() sim.Time {
	c.bracketed = true
	return c.clock.Now()
}

// EndBracket closes the region Bracket opened at t0.
func (c *OpCapture) EndBracket(t0 sim.Time, kind PhaseKind) {
	c.bracketed = false
	c.phases.Add(kind, c.clock.Now().Sub(t0))
}

// DrainAs waits out the disk's queued transfers and credits the wait
// to kind: PhaseCommitWait for a sync or a group-commit leader,
// PhasePiggybackWait for an fsync whose data rode an earlier commit.
func (c *OpCapture) DrainAs(kind PhaseKind) {
	t0 := c.clock.Now()
	c.d.Drain()
	c.phases.Add(kind, c.clock.Now().Sub(t0))
}

// Reclassify moves what the running operation was charged under from
// to to (see PhaseAccum.Reclassify).
func (c *OpCapture) Reclassify(from, to PhaseKind) { c.phases.Reclassify(from, to) }

// RegisterMetrics exports operation throughput, errors and latency,
// and fsync latency by phase: one distribution per kind, in kind
// order, each with a derived p95 (e.g. op.fsync.phase.queue_wait.p95).
// The probes are pure reads, run with the owner's lock held.
func (c *OpCapture) RegisterMetrics(r *Registry) {
	r.RatedCounter("ops", func() int64 { return c.opsDone })
	r.Counter("ops.errors", func() int64 { return c.opsErr })
	r.QuantileHist("op.latency_s", func() Histogram { return c.opLat }, 0.5, 0.95, 0.99)
	for k := range c.fsyncPhase {
		r.QuantileHist("op.fsync.phase."+PhaseKind(k).String(),
			func() Histogram { return c.fsyncPhase[k] }, 0.95)
	}
}
