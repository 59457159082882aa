package experiments

import (
	"fmt"
	"sort"
	"strings"

	"lfs/internal/core"
	"lfs/internal/obs"
	"lfs/internal/sim"
)

// CritPathRow is one client count's fsync latency decomposition.
type CritPathRow struct {
	Clients int

	// Spans and ExactSpans count all recorded spans and those whose
	// phase lists sum to their latency exactly; the experiment fails
	// unless they are equal (the exactness invariant).
	Spans      int
	ExactSpans int

	// FsyncCount is the number of fsync spans the row aggregates.
	FsyncCount int
	// P50 and P95 are fsync latency percentiles computed from the
	// spans themselves (nearest rank — exact data, no buckets).
	P50 sim.Duration
	P95 sim.Duration
	// MeanPhase is the mean time per fsync spent in each phase; the
	// entries sum to the mean fsync latency (exactness survives
	// averaging).
	MeanPhase [obs.NumPhaseKinds]sim.Duration

	// TopBlame is the phase holding the largest share of tail time —
	// the summed latency of fsync spans at or above P95 — and
	// TopBlameShare its fraction of that tail time.
	TopBlame      obs.PhaseKind
	TopBlameShare float64
}

// MeanLatency returns the mean fsync latency (the sum of the phase
// means).
func (r CritPathRow) MeanLatency() sim.Duration {
	var total sim.Duration
	for _, d := range r.MeanPhase {
		total += d
	}
	return total
}

// spanQuantile returns the q-th nearest-rank percentile of sorted
// durations.
func spanQuantile(sorted []sim.Duration, q float64) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	//lfslint:allow floataccum nearest-rank index selection for display percentiles; the result feeds no accounting state
	i := int(q*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// CritPath sweeps client counts over group-commit LFS with tracing on
// and decomposes every fsync's latency by phase: the concurrency curve
// shows *that* p50 jumps when clients contend, this shows *where the
// time goes* — queue wait, commit wait, piggyback wait — span by span.
// It fails if any recorded span — fsync or otherwise — violates the
// exactness invariant, making every run of the experiment a check of
// the attribution plumbing end to end.
func CritPath(opts ClientOpts) ([]CritPathRow, error) {
	return sweep("critpath", opts.ClientCounts, func(n int) (CritPathRow, error) {
		row := CritPathRow{Clients: n}
		rec := obs.NewRecorder()
		cfg := core.DefaultConfig()
		cfg.GroupCommit = true
		cfg.Trace = rec
		sys, err := NewLFS(opts.Capacity, cfg)
		if err != nil {
			return row, err
		}
		if _, err := runClients(sys.System.(*core.FS), clientLoad(n, opts.OpsPerClient)); err != nil {
			return row, err
		}

		var lats []sim.Duration
		var fsyncs []obs.Span
		for _, s := range rec.Spans() {
			row.Spans++
			if s.PhasesExact() {
				row.ExactSpans++
			} else {
				return row, fmt.Errorf("span %s %q latency %v but phases sum to %v",
					s.Op, s.Path, s.Latency(), sumPhases(s.Phases))
			}
			if s.Op == "fsync" {
				fsyncs = append(fsyncs, s)
				lats = append(lats, s.Latency())
			}
		}
		if len(fsyncs) == 0 {
			return row, fmt.Errorf("no fsync spans recorded")
		}
		row.FsyncCount = len(fsyncs)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		row.P50 = spanQuantile(lats, 0.50)
		row.P95 = spanQuantile(lats, 0.95)

		// Phase means over all fsyncs, and the tail blame over the
		// spans at or above p95.
		var total, tail [obs.NumPhaseKinds]sim.Duration
		for _, s := range fsyncs {
			t := obs.PhaseTotals(s.Phases)
			for k := range t {
				total[k] += t[k]
				if s.Latency() >= row.P95 {
					tail[k] += t[k]
				}
			}
		}
		var tailTotal sim.Duration
		for k := range total {
			row.MeanPhase[k] = total[k] / sim.Duration(len(fsyncs))
			tailTotal += tail[k]
			if tail[k] > tail[row.TopBlame] {
				row.TopBlame = obs.PhaseKind(k)
			}
		}
		if tailTotal > 0 {
			row.TopBlameShare = tail[row.TopBlame].Seconds() / tailTotal.Seconds()
		}
		return row, nil
	})
}

// runCritPath is the table's critpath row. The per-phase means,
// percentiles and tail blame are the gated summary, so time silently
// moving between phases — an attribution regression — cannot land.
func runCritPath() (Result, error) {
	rows, err := CritPath(DefaultClientOpts())
	if err != nil {
		return Result{}, err
	}
	curve := make([]map[string]any, len(rows))
	for i, r := range rows {
		p := map[string]any{
			"clients":         r.Clients,
			"fsyncs":          r.FsyncCount,
			"mean_ms":         ms(r.MeanLatency()),
			"p50_ms":          ms(r.P50),
			"p95_ms":          ms(r.P95),
			"top_blame":       r.TopBlame.String(),
			"top_blame_share": r.TopBlameShare,
		}
		for k := obs.PhaseKind(0); k < obs.NumPhaseKinds; k++ {
			p["mean_"+k.String()+"_ms"] = ms(r.MeanPhase[k])
		}
		curve[i] = p
	}
	return Result{
		Text: FormatCritPath(rows),
		// Exactness is a verdict: every span decomposed exactly, or
		// CritPath itself would have failed. Recorded as 1, not true, as
		// the committed baseline has it.
		Bench: map[string]any{"experiment": "critpath", "curve": curve, "exact": 1},
	}, nil
}

// sumPhases totals a phase list, for error reporting.
func sumPhases(phases []obs.Phase) sim.Duration {
	var total sim.Duration
	for _, p := range phases {
		total += p.Dur
	}
	return total
}

// FormatCritPath renders the per-client-count fsync decomposition: one
// column per phase kind (mean ms per fsync), the latency percentiles,
// and a top-blame summary naming the phase that owns the tail.
func FormatCritPath(rows []CritPathRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Critical path - mean ms per fsync by phase (group-commit LFS)\n")
	fmt.Fprintf(&b, "%8s %7s", "clients", "fsyncs")
	for k := obs.PhaseKind(0); k < obs.NumPhaseKinds; k++ {
		fmt.Fprintf(&b, " %*s", phaseColWidth(k), k.String())
	}
	fmt.Fprintf(&b, " %8s %8s %8s\n", "mean", "p50ms", "p95ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %7d", r.Clients, r.FsyncCount)
		for k := obs.PhaseKind(0); k < obs.NumPhaseKinds; k++ {
			fmt.Fprintf(&b, " %*.2f", phaseColWidth(k), ms(r.MeanPhase[k]))
		}
		fmt.Fprintf(&b, " %8.2f %8.2f %8.2f\n", ms(r.MeanLatency()), ms(r.P50), ms(r.P95))
	}
	fmt.Fprintf(&b, "top blame (share of tail time at/above p95):\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d clients: %s %5.1f%%\n",
			r.Clients, r.TopBlame, 100*r.TopBlameShare)
	}
	return b.String()
}

// phaseColWidth sizes a phase column to its header.
func phaseColWidth(k obs.PhaseKind) int {
	w := len(k.String())
	if w < 7 {
		w = 7
	}
	return w
}
