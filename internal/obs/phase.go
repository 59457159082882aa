package obs

import (
	"fmt"

	"lfs/internal/disk"
	"lfs/internal/sim"
)

// PhaseKind names one segment of an operation's latency. The kinds
// mirror the disk.IOCause idiom: a small closed enum with stable
// string names shared by the trace JSONL schema (a span's phases), the
// metrics plane (op.fsync.phase.<kind> series), and the lfstrace
// -critpath report.
//
// Together the phases carry an exactness invariant, the latency
// analogue of the disk's 100%-busy-time decomposition: the Phase list
// attached to a Span sums to Span.Latency() to the tick. The
// simulation is single-threaded, so every nanosecond of an
// operation's latency has exactly one source — CPU charged against
// the simulated clock, waiting for the disk arm, or waiting inside a
// named subsystem (group commit, the cleaner, cross-shard fan-out) —
// and the instrumented producers attribute each advance to exactly
// one kind. PhaseCPU is the residual: latency not spent waiting is
// compute, by construction.
type PhaseKind uint8

// The phase kinds, in report order.
const (
	// PhaseCPU is simulated compute: clock advances charged by
	// sim.CPU. It is derived as the residual after all waits.
	PhaseCPU PhaseKind = iota
	// PhaseLockWait is serialization wait: the operation was
	// dispatched later than scheduled because other clients'
	// operations held the (single-threaded) file system.
	PhaseLockWait
	// PhaseQueueWait is time a blocking disk request spent behind
	// earlier queued transfers before the arm picked it up.
	PhaseQueueWait
	// PhaseDiskService is the disk arm servicing a blocking request
	// this operation issued; Phase.Cause carries the request's
	// IOCause.
	PhaseDiskService
	// PhaseCommitWait is the group-commit leader's wait: the fsync
	// that flushed the dirty set drains the disk until its own
	// segment transfer (and everything queued before it) completes.
	PhaseCommitWait
	// PhasePiggybackWait is the follower's wait: the fsync found its
	// file already riding an earlier group commit and only waited for
	// the in-flight transfer — the paper's N-syncs-one-transfer
	// scaling, and the wait NVM write staging would eliminate.
	PhasePiggybackWait
	// PhaseCleaner is cleaner interference: the operation triggered a
	// cleaner activation (watermark or idle cleaning) and carried its
	// entire cost — reads, relocation writes, mid-run checkpoints.
	PhaseCleaner
	// PhaseFanout is cross-shard fan-out wait: the shard router issued
	// FlushAsync to the other shards around a home fsync, and their
	// issue-time CPU advanced the shared clock.
	PhaseFanout

	// NumPhaseKinds bounds the kind space; PhaseAccum is indexed by
	// kind.
	NumPhaseKinds
)

// phaseNames indexes PhaseKind.String; the names are stable API used
// in trace files and metrics series names.
var phaseNames = [NumPhaseKinds]string{
	"cpu", "lock_wait", "queue_wait", "disk_service",
	"commit_wait", "piggyback_wait", "cleaner", "fanout_wait",
}

// String returns the kind's stable name.
func (k PhaseKind) String() string {
	if k >= NumPhaseKinds {
		return fmt.Sprintf("phase(%d)", int(k))
	}
	return phaseNames[k]
}

// ParsePhaseKind maps a phase name back to its value, for trace
// readers.
func ParsePhaseKind(s string) (PhaseKind, bool) {
	for i, n := range phaseNames {
		if n == s {
			return PhaseKind(i), true
		}
	}
	return PhaseCPU, false
}

// Phase is one segment of a span's latency. Cause is meaningful only
// for PhaseDiskService, where it names the serviced request's
// disk.IOCause; it is CauseOther (and omitted on the wire) for every
// other kind.
type Phase struct {
	Kind  PhaseKind
	Cause disk.IOCause
	Dur   sim.Duration
}

// PhaseAccum accumulates wait attributions over one operation. The
// file systems keep one per instance, reset at operation entry; the
// fixed arrays keep emission order deterministic (kind order, then
// cause order) without a sort.
type PhaseAccum struct {
	kinds   [NumPhaseKinds]sim.Duration
	service [disk.NumCauses]sim.Duration
}

// Reset clears the accumulator for the next operation.
func (a *PhaseAccum) Reset() { *a = PhaseAccum{} }

// Add charges d to the given kind. PhaseDiskService charged here
// lands under CauseOther; use AddService to attribute it.
func (a *PhaseAccum) Add(kind PhaseKind, d sim.Duration) {
	if d <= 0 || kind >= NumPhaseKinds {
		return
	}
	if kind == PhaseDiskService {
		a.service[disk.CauseOther] += d
	}
	a.kinds[kind] += d
}

// AddService charges d of disk service time under the given cause.
func (a *PhaseAccum) AddService(cause disk.IOCause, d sim.Duration) {
	if d <= 0 {
		return
	}
	if cause >= disk.NumCauses {
		cause = disk.CauseOther
	}
	a.kinds[PhaseDiskService] += d
	a.service[cause] += d
}

// Reclassify moves everything charged under from to to — the hook for
// a producer that learns a wait's real identity only after the fact
// (a dispatch gap turns out to be a follower parked behind the group
// commit that carried its data). PhaseDiskService cannot be
// reclassified: its time is pinned to per-cause sub-entries.
func (a *PhaseAccum) Reclassify(from, to PhaseKind) {
	if from >= NumPhaseKinds || to >= NumPhaseKinds || from == to ||
		from == PhaseDiskService || to == PhaseDiskService {
		return
	}
	a.kinds[to] += a.kinds[from]
	a.kinds[from] = 0
}

// Attributed returns the total wait time charged so far.
func (a *PhaseAccum) Attributed() sim.Duration {
	var total sim.Duration
	for _, d := range a.kinds {
		total += d
	}
	return total
}

// Phases renders the accumulator as a span's ordered phase list for
// an operation of the given latency. The CPU phase is derived as the
// residual — latency minus all attributed waits — so the returned
// list always sums to latency exactly (the exactness invariant); a
// negative residual means an attribution bug and is returned as-is so
// tests catch it rather than the accounting hiding it. Zero-duration
// phases are skipped; a zero-latency operation yields nil.
func (a *PhaseAccum) Phases(latency sim.Duration) []Phase {
	residual := latency - a.Attributed()
	if residual == 0 && a.Attributed() == 0 {
		return nil
	}
	out := make([]Phase, 0, 4)
	if residual != 0 {
		out = append(out, Phase{Kind: PhaseCPU, Dur: residual})
	}
	for k := PhaseCPU + 1; k < NumPhaseKinds; k++ {
		if a.kinds[k] == 0 {
			continue
		}
		if k == PhaseDiskService {
			for c := disk.IOCause(0); c < disk.NumCauses; c++ {
				if a.service[c] > 0 {
					out = append(out, Phase{Kind: PhaseDiskService, Cause: c, Dur: a.service[c]})
				}
			}
			continue
		}
		out = append(out, Phase{Kind: k, Dur: a.kinds[k]})
	}
	return out
}

// PhaseTotals sums a phase list by kind into a fixed-order array —
// the aggregation primitive shared by OpStats, the critpath
// experiment, and lfstrace.
func PhaseTotals(phases []Phase) [NumPhaseKinds]sim.Duration {
	var totals [NumPhaseKinds]sim.Duration
	for _, p := range phases {
		if p.Kind < NumPhaseKinds {
			totals[p.Kind] += p.Dur
		}
	}
	return totals
}
