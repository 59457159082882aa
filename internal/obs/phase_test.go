package obs

import (
	"testing"

	"lfs/internal/disk"
	"lfs/internal/sim"
)

func TestPhaseKindNames(t *testing.T) {
	seen := make(map[string]bool)
	for k := PhaseKind(0); k < NumPhaseKinds; k++ {
		name := k.String()
		if name == "" || seen[name] {
			t.Fatalf("kind %d: empty or duplicate name %q", k, name)
		}
		seen[name] = true
		back, ok := ParsePhaseKind(name)
		if !ok || back != k {
			t.Errorf("ParsePhaseKind(%q) = %v, %v; want %v, true", name, back, ok, k)
		}
	}
	if _, ok := ParsePhaseKind("no-such-phase"); ok {
		t.Error("ParsePhaseKind accepted an unknown name")
	}
	if got := PhaseKind(200).String(); got != "phase(200)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestPhaseAccumExactness(t *testing.T) {
	var a PhaseAccum
	a.Add(PhaseLockWait, 10*sim.Millisecond)
	a.Add(PhaseQueueWait, 5*sim.Millisecond)
	a.AddService(disk.CauseLogAppend, 20*sim.Millisecond)
	a.AddService(disk.CauseReadMiss, 3*sim.Millisecond)
	a.Add(PhaseCommitWait, 7*sim.Millisecond)

	latency := 50 * sim.Millisecond // 5ms of CPU residual
	phases := a.Phases(latency)
	var sum sim.Duration
	for _, p := range phases {
		sum += p.Dur
	}
	if sum != latency {
		t.Fatalf("phases sum to %v, want %v (exactness invariant)", sum, latency)
	}
	if phases[0].Kind != PhaseCPU || phases[0].Dur != 5*sim.Millisecond {
		t.Errorf("residual CPU = %+v, want 5ms first", phases[0])
	}
	// Emission order is kind order, disk_service split by cause in
	// cause order.
	wantKinds := []PhaseKind{PhaseCPU, PhaseLockWait, PhaseQueueWait,
		PhaseDiskService, PhaseDiskService, PhaseCommitWait}
	if len(phases) != len(wantKinds) {
		t.Fatalf("%d phases, want %d: %+v", len(phases), len(wantKinds), phases)
	}
	for i, k := range wantKinds {
		if phases[i].Kind != k {
			t.Errorf("phase %d kind = %v, want %v", i, phases[i].Kind, k)
		}
	}
	if phases[3].Cause != disk.CauseLogAppend || phases[4].Cause != disk.CauseReadMiss {
		t.Errorf("disk_service causes out of cause order: %+v %+v", phases[3], phases[4])
	}

	totals := PhaseTotals(phases)
	if totals[PhaseDiskService] != 23*sim.Millisecond {
		t.Errorf("disk_service total = %v, want 23ms", totals[PhaseDiskService])
	}
	var total sim.Duration
	for _, d := range totals {
		total += d
	}
	if total != latency {
		t.Errorf("PhaseTotals sum = %v, want %v", total, latency)
	}
}

func TestPhaseAccumNegativeResidualSurfaces(t *testing.T) {
	// Over-attribution must not be hidden: the CPU residual goes
	// negative and the sum still equals the latency, so PhasesExact
	// holds but the bug is visible in the phase list.
	var a PhaseAccum
	a.Add(PhaseCommitWait, 30*sim.Millisecond)
	phases := a.Phases(20 * sim.Millisecond)
	if phases[0].Kind != PhaseCPU || phases[0].Dur != -10*sim.Millisecond {
		t.Fatalf("negative residual not surfaced: %+v", phases)
	}
}

func TestPhaseAccumZeroAndReset(t *testing.T) {
	var a PhaseAccum
	if got := a.Phases(0); got != nil {
		t.Errorf("empty accumulator at zero latency: %v, want nil", got)
	}
	a.Add(PhaseCleaner, -sim.Millisecond) // ignored
	a.Add(NumPhaseKinds, sim.Millisecond) // out of range, ignored
	if a.Attributed() != 0 {
		t.Errorf("invalid Adds were counted: %v", a.Attributed())
	}
	a.Add(PhaseCleaner, sim.Millisecond)
	a.Reset()
	if a.Attributed() != 0 {
		t.Errorf("Reset left %v attributed", a.Attributed())
	}
}

func TestPhaseAccumReclassify(t *testing.T) {
	var a PhaseAccum
	a.Add(PhaseLockWait, 8*sim.Millisecond)
	a.Reclassify(PhaseLockWait, PhasePiggybackWait)
	if a.kinds[PhaseLockWait] != 0 || a.kinds[PhasePiggybackWait] != 8*sim.Millisecond {
		t.Errorf("reclassify moved wrong amounts: lock=%v piggyback=%v",
			a.kinds[PhaseLockWait], a.kinds[PhasePiggybackWait])
	}
	if a.Attributed() != 8*sim.Millisecond {
		t.Errorf("reclassify changed the total: %v", a.Attributed())
	}
	// Disk service cannot be reclassified (its time is pinned to
	// causes); no-op, not corruption.
	a.AddService(disk.CauseLogAppend, 4*sim.Millisecond)
	a.Reclassify(PhaseDiskService, PhaseCommitWait)
	if a.kinds[PhaseDiskService] != 4*sim.Millisecond {
		t.Errorf("disk_service reclassified: %v", a.kinds[PhaseDiskService])
	}
}

func TestSpanPhasesExact(t *testing.T) {
	s := Span{Start: 0, End: sim.Time(10 * sim.Millisecond), Phases: []Phase{
		{Kind: PhaseCPU, Dur: 4 * sim.Millisecond},
		{Kind: PhaseCommitWait, Dur: 6 * sim.Millisecond},
	}}
	if !s.PhasesExact() {
		t.Error("exact span reported inexact")
	}
	s.Phases[1].Dur--
	if s.PhasesExact() {
		t.Error("off-by-one span reported exact")
	}
	// Phase-less spans are exact only at zero latency (v1 traces).
	v1 := Span{Start: 0, End: sim.Time(sim.Millisecond)}
	if v1.PhasesExact() {
		t.Error("phase-less nonzero-latency span reported exact")
	}
}

func TestRecorderLimitRing(t *testing.T) {
	r := NewRecorderLimit(3)
	for i := 0; i < 5; i++ {
		r.Span(Span{Op: "write", CPU: int64(i)})
		r.Record(disk.Event{Sector: int64(i)})
		r.Clean(CleanRecord{Seg: i})
	}
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans retained, want 3", len(spans))
	}
	// Oldest-first unroll: 2, 3, 4 survive.
	for i, s := range spans {
		if s.CPU != int64(i+2) {
			t.Errorf("span %d CPU = %d, want %d (ring order)", i, s.CPU, i+2)
		}
	}
	if evs := r.Events(); len(evs) != 3 || evs[0].Sector != 2 {
		t.Errorf("events ring wrong: %+v", evs)
	}
	if cls := r.Cleans(); len(cls) != 3 || cls[2].Seg != 4 {
		t.Errorf("cleans ring wrong: %+v", cls)
	}
	agg := r.Aggregates()
	if agg.DroppedSpans != 2 || agg.DroppedEvents != 2 || agg.DroppedCleans != 2 {
		t.Errorf("Aggregates dropped = %d, %d, %d; want 2, 2, 2",
			agg.DroppedSpans, agg.DroppedEvents, agg.DroppedCleans)
	}
	if agg.Ops[0].Count != 3 {
		t.Errorf("aggregation saw %d spans, want the 3 retained", agg.Ops[0].Count)
	}

	r.Reset()
	if agg := r.Aggregates(); agg.DroppedSpans != 0 || agg.DroppedEvents != 0 || agg.DroppedCleans != 0 {
		t.Errorf("Reset kept dropped counters: %d %d %d",
			agg.DroppedSpans, agg.DroppedEvents, agg.DroppedCleans)
	}
	r.Span(Span{Op: "read"})
	if len(r.Spans()) != 1 {
		t.Errorf("recorder unusable after Reset")
	}
	// Unlimited and negative-n recorders never drop.
	for _, rec := range []*Recorder{NewRecorder(), NewRecorderLimit(-1)} {
		for i := 0; i < 10; i++ {
			rec.Span(Span{Op: "x"})
		}
		if len(rec.Spans()) != 10 {
			t.Errorf("unlimited recorder dropped records")
		}
	}
}
