// Package obs is the observability subsystem: simulated-clock
// operation spans, cause-attributed disk I/O, and cleaner activation
// records, aggregated into the quantities the paper reports.
//
// The paper's central results (Figures 3-5) are attribution claims —
// what fraction of disk time goes to log writes versus cleaning versus
// checkpoints, and what the write cost is at a given segment
// utilisation. A flat counter struct cannot answer those questions;
// this package records enough structure that disk busy time decomposes
// exactly into named causes and the cleaner's write cost can be
// recomputed per activation.
//
// A Recorder is attached through Config.Trace on either file system.
// All methods are safe on a nil *Recorder and cost nothing, so the
// instrumented code paths need no conditionals; everything in this
// package reads only simulated clocks, so attaching a recorder never
// changes the simulated timeline.
package obs

import (
	"sort"
	"sync"

	"lfs/internal/disk"
	"lfs/internal/sim"
)

// Span is one VFS operation: its name, target path, simulated start
// and end times, the CPU instructions it charged, and the error it
// returned ("" on success). Client is the issuing client's ID in
// multi-client runs (0 = unattributed single-client traffic); Shard
// is the executing shard's 1-based ID in sharded multi-log runs
// (0 = unsharded).
type Span struct {
	Op     string
	Path   string
	Start  sim.Time
	End    sim.Time
	CPU    int64
	Err    string
	Client int
	Shard  int
	// Phases decomposes the span's latency into ordered attributed
	// segments summing to Latency() exactly (the exactness
	// invariant); nil on spans recorded before phase attribution
	// existed (trace schema v1) or for zero-latency operations.
	Phases []Phase
}

// Latency returns the operation's simulated duration.
func (s Span) Latency() sim.Duration { return s.End.Sub(s.Start) }

// PhasesExact reports whether the span's phase list sums to its
// latency to the tick. Spans without phases (v1 traces) are vacuously
// exact only when their latency is zero.
func (s Span) PhasesExact() bool {
	var sum sim.Duration
	for _, p := range s.Phases {
		sum += p.Dur
	}
	return sum == s.Latency()
}

// CleanRecord is one cleaner activation on one victim segment.
type CleanRecord struct {
	// Time is when the segment's clean finished.
	Time sim.Time
	// Seg is the victim segment number.
	Seg int
	// Utilization is the victim's live fraction as estimated at
	// selection time (the x-axis of the paper's Figure 5).
	Utilization float64
	// BytesRead is the whole-segment read of phase one.
	BytesRead int64
	// BytesCopied is the live data rewritten to the log head.
	BytesCopied int64
	// BytesReclaimed is the net clean space generated: the segment
	// reclaimed minus the space its live data consumes after
	// relocation.
	BytesReclaimed int64
	// WriteCost is the paper's cleaning cost for this activation:
	// (read + copied + new)/new where new = read - copied, i.e.
	// 2/(1-u) at measured utilisation u. Zero when the segment was
	// entirely live (no new space generated; the cost is unbounded).
	WriteCost float64
}

// WriteCost computes the paper's write-cost formula, (read + copied +
// new)/new where new = read - copied, from measured bytes, returning 0
// when no new space was generated.
func WriteCost(read, copied int64) float64 {
	fresh := read - copied
	if fresh <= 0 {
		return 0
	}
	return float64(read+copied+fresh) / float64(fresh)
}

// Recorder collects spans, cause-tagged disk events, and cleaner
// records. It implements disk.Tracer. A Recorder may be shared by
// several file systems (e.g. an LFS and the FFS baseline on one
// timeline) and read while a workload runs, so it carries its own
// lock; all methods are safe on a nil receiver.
type Recorder struct {
	mu sync.Mutex
	// spans, events, and cleans are the recorded streams; all
	// guarded by mu.
	spans  ring[Span]
	events ring[disk.Event]
	cleans ring[CleanRecord]
	// limit caps each stream's retained records (0 = unlimited).
	limit int
}

// ring is one recorded stream. Once a retention limit is reached, the
// oldest record is overwritten — long runs keep the most recent window
// instead of growing without bound — and counted as dropped.
type ring[T any] struct {
	buf []T
	// head is the oldest record's index, meaningful once buf has
	// reached the limit.
	head    int
	dropped int64
}

// push appends x, overwriting the oldest record when limit (> 0) is
// reached.
func (q *ring[T]) push(x T, limit int) {
	if limit > 0 && len(q.buf) >= limit {
		q.buf[q.head] = x
		q.head = (q.head + 1) % limit
		q.dropped++
		return
	}
	q.buf = append(q.buf, x)
}

// all returns a copy of the retained records, oldest first.
func (q *ring[T]) all() []T {
	out := make([]T, 0, len(q.buf))
	out = append(out, q.buf[q.head:]...)
	return append(out, q.buf[:q.head]...)
}

// NewRecorder returns an empty recorder with no retention limit.
func NewRecorder() *Recorder { return &Recorder{} }

// NewRecorderLimit returns a recorder retaining at most n records per
// stream (spans, disk events, cleaner records). When a stream is
// full, appending evicts the oldest record and counts it in the
// Dropped fields of Aggregates — a 10^8-event run with tracing on
// keeps a bounded window instead of exhausting memory. n <= 0 means
// unlimited.
func NewRecorderLimit(n int) *Recorder {
	if n < 0 {
		n = 0
	}
	return &Recorder{limit: n}
}

// Enabled reports whether the recorder is non-nil, for callers that
// want to skip building a record at all.
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends a disk event (disk.Tracer).
func (r *Recorder) Record(ev disk.Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events.push(ev, r.limit)
	r.mu.Unlock()
}

// Span appends an operation span.
func (r *Recorder) Span(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans.push(s, r.limit)
	r.mu.Unlock()
}

// Clean appends a cleaner activation record, deriving its WriteCost
// from the measured byte counts.
func (r *Recorder) Clean(c CleanRecord) {
	if r == nil {
		return
	}
	c.WriteCost = WriteCost(c.BytesRead, c.BytesCopied)
	r.mu.Lock()
	r.cleans.push(c, r.limit)
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans, oldest first.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.all()
}

// Events returns a copy of the recorded disk events, oldest first.
func (r *Recorder) Events() []disk.Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.all()
}

// Cleans returns a copy of the recorded cleaner activations, oldest
// first.
func (r *Recorder) Cleans() []CleanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cleans.all()
}

// Reset discards everything recorded so far, including the dropped
// counters; the retention limit is kept.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans, r.events, r.cleans = ring[Span]{}, ring[disk.Event]{}, ring[CleanRecord]{}
	r.mu.Unlock()
}

// OpStats aggregates the spans of one operation type.
type OpStats struct {
	Op      string
	Count   int64
	Errors  int64
	CPU     int64
	Total   sim.Duration
	Min     sim.Duration
	Max     sim.Duration
	Latency Histogram
	// Phase sums the op's span latency by phase kind. For spans
	// carrying phase lists the kinds sum to the span's latency
	// exactly, so summing across spans preserves the invariant:
	// the Phase totals of an op sum to Total minus the latency of
	// phase-less (v1) spans.
	Phase [NumPhaseKinds]sim.Duration
}

// Mean returns the average latency.
func (o OpStats) Mean() sim.Duration {
	if o.Count == 0 {
		return 0
	}
	return o.Total / sim.Duration(o.Count)
}

// CauseBusy is the disk time attributed to one I/O cause.
type CauseBusy struct {
	Cause    disk.IOCause
	Requests int64
	Sectors  int64
	Busy     sim.Duration
}

// CleanStats aggregates the cleaner activation records.
type CleanStats struct {
	Activations    int64
	BytesRead      int64
	BytesCopied    int64
	BytesReclaimed int64
	// WriteCost is the aggregate cleaning cost over all activations:
	// 2*read/(read-copied). Because each record carries measured byte
	// counts, this equals the value derived from core.Stats.
	WriteCost float64
	// Utilization is the distribution of victim utilisation at clean
	// time (Figure 5's x-axis).
	Utilization Histogram
}

// Aggregates condenses a recorder's contents into the report
// quantities: per-op latency statistics, the disk busy-time
// decomposition by cause, and the cleaner cost summary.
type Aggregates struct {
	Ops      []OpStats
	IO       []CauseBusy
	DiskBusy sim.Duration
	Clean    CleanStats
	// DroppedSpans, DroppedEvents, and DroppedCleans count records a
	// retention limit (NewRecorderLimit) evicted before aggregation:
	// non-zero values mean the figures below describe a recent window
	// of the run, not all of it.
	DroppedSpans  int64
	DroppedEvents int64
	DroppedCleans int64
}

// Aggregates computes aggregates over everything recorded so far.
func (r *Recorder) Aggregates() *Aggregates {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stream{Spans: r.spans.all(), Events: r.events.all(), Cleans: r.cleans.all()}
	agg := st.Aggregates()
	agg.DroppedSpans = r.spans.dropped
	agg.DroppedEvents = r.events.dropped
	agg.DroppedCleans = r.cleans.dropped
	return agg
}

// Aggregates computes the same Aggregates over a decoded stream's
// trace records that Recorder.Aggregates computes over live ones;
// lfstrace uses it to summarise a trace file.
func (st *Stream) Aggregates() *Aggregates {
	agg := &Aggregates{}

	byOp := make(map[string]*OpStats)
	for _, s := range st.Spans {
		o := byOp[s.Op]
		if o == nil {
			o = &OpStats{Op: s.Op, Latency: NewLatencyHistogram()}
			byOp[s.Op] = o
		}
		lat := s.Latency()
		o.Count++
		if s.Err != "" {
			o.Errors++
		}
		o.CPU += s.CPU
		o.Total += lat
		if o.Count == 1 || lat < o.Min {
			o.Min = lat
		}
		if lat > o.Max {
			o.Max = lat
		}
		o.Latency.Observe(lat.Seconds())
		for _, p := range s.Phases {
			if p.Kind < NumPhaseKinds {
				o.Phase[p.Kind] += p.Dur
			}
		}
	}
	for _, o := range byOp {
		agg.Ops = append(agg.Ops, *o)
	}
	sort.Slice(agg.Ops, func(i, j int) bool { return agg.Ops[i].Op < agg.Ops[j].Op })

	var byCause [disk.NumCauses]CauseBusy
	for _, ev := range st.Events {
		c := ev.Cause
		if c >= disk.NumCauses {
			c = disk.CauseOther
		}
		byCause[c].Requests++
		byCause[c].Sectors += int64(ev.Sectors)
		byCause[c].Busy += ev.Service
		agg.DiskBusy += ev.Service
	}
	for c := disk.IOCause(0); c < disk.NumCauses; c++ {
		if byCause[c].Requests == 0 {
			continue
		}
		byCause[c].Cause = c
		agg.IO = append(agg.IO, byCause[c])
	}

	agg.Clean.Utilization = NewUtilizationHistogram()
	for _, c := range st.Cleans {
		agg.Clean.Activations++
		agg.Clean.BytesRead += c.BytesRead
		agg.Clean.BytesCopied += c.BytesCopied
		agg.Clean.BytesReclaimed += c.BytesReclaimed
		agg.Clean.Utilization.Observe(c.Utilization)
	}
	agg.Clean.WriteCost = WriteCost(agg.Clean.BytesRead, agg.Clean.BytesCopied)
	return agg
}

// AttributedBusy returns the disk time carrying a named cause (not
// CauseOther) and the total, over the aggregated events.
func (a *Aggregates) AttributedBusy() (named, total sim.Duration) {
	for _, io := range a.IO {
		if io.Cause != disk.CauseOther {
			named += io.Busy
		}
	}
	return named, a.DiskBusy
}
