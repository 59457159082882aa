package obs

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/sim"
)

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 0.9, 1, 5, 50, 100, 1e6} {
		h.Observe(v)
	}
	want := []int64{2, 2, 1, 2}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, c, want[i], h.Counts)
		}
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d, want 7", h.Total())
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(1, 10)
	if got := h.String(); got != "(empty)" {
		t.Errorf("empty String = %q", got)
	}
	h.Observe(0.5)
	h.Observe(11)
	s := h.String()
	if !strings.Contains(s, "[<1):1") || !strings.Contains(s, "[>=10):1") {
		t.Errorf("String = %q", s)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(1)
	b := NewHistogram(1)
	a.Observe(0)
	b.Observe(2)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Counts[0] != 1 || a.Counts[1] != 1 {
		t.Errorf("merged counts %v", a.Counts)
	}
	c := NewHistogram(1, 2)
	if err := a.Merge(c); err == nil {
		t.Error("merging mismatched layouts succeeded")
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder Enabled")
	}
	r.Record(disk.Event{})
	r.Span(Span{})
	r.Clean(CleanRecord{})
	r.Reset()
	if r.Spans() != nil || r.Events() != nil || r.Cleans() != nil {
		t.Error("nil recorder returned records")
	}
	if r.Aggregates() != nil {
		t.Error("nil recorder returned aggregates")
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
}

func TestWriteCost(t *testing.T) {
	cases := []struct {
		read, copied int64
		want         float64
	}{
		{1000, 0, 2},    // empty victim: read it, write nothing back
		{1000, 500, 4},  // u = 0.5: 2/(1-0.5)
		{1000, 750, 8},  // u = 0.75: 2/(1-0.75)
		{1000, 1000, 0}, // fully live: unbounded, reported as 0
		{1000, 1200, 0}, // pathological copied > read
		{0, 0, 0},       // nothing cleaned
	}
	for _, c := range cases {
		if got := WriteCost(c.read, c.copied); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WriteCost(%d, %d) = %v, want %v", c.read, c.copied, got, c.want)
		}
	}
}

func TestCleanDerivesWriteCost(t *testing.T) {
	r := NewRecorder()
	r.Clean(CleanRecord{Seg: 3, Utilization: 0.5, BytesRead: 1 << 20, BytesCopied: 1 << 19})
	cleans := r.Cleans()
	if len(cleans) != 1 {
		t.Fatalf("got %d cleans", len(cleans))
	}
	if got := cleans[0].WriteCost; math.Abs(got-4) > 1e-12 {
		t.Errorf("WriteCost = %v, want 4", got)
	}
}

func TestAggregates(t *testing.T) {
	r := NewRecorder()
	r.Span(Span{Op: "write", Path: "/a", Start: 0, End: sim.Time(1000)})
	r.Span(Span{Op: "write", Path: "/b", Start: sim.Time(1000), End: sim.Time(4000), CPU: 10})
	r.Span(Span{Op: "read", Path: "/a", Start: sim.Time(4000), End: sim.Time(4500), Err: "read /a: boom"})
	r.Record(disk.Event{Kind: disk.OpWrite, Sectors: 8, Cause: disk.CauseLogAppend, Service: 100})
	r.Record(disk.Event{Kind: disk.OpWrite, Sectors: 8, Cause: disk.CauseLogAppend, Service: 300})
	r.Record(disk.Event{Kind: disk.OpRead, Sectors: 2, Cause: disk.CauseReadMiss, Service: 50})
	r.Record(disk.Event{Kind: disk.OpRead, Sectors: 1, Cause: disk.CauseOther, Service: 25})
	r.Clean(CleanRecord{Utilization: 0.25, BytesRead: 400, BytesCopied: 100, BytesReclaimed: 300})

	a := r.Aggregates()
	if len(a.Ops) != 2 || a.Ops[0].Op != "read" || a.Ops[1].Op != "write" {
		t.Fatalf("ops = %+v", a.Ops)
	}
	w := a.Ops[1]
	if w.Count != 2 || w.CPU != 10 || w.Total != 4000 || w.Min != 1000 || w.Max != 3000 {
		t.Errorf("write stats = %+v", w)
	}
	if w.Mean() != 2000 {
		t.Errorf("write mean = %v", w.Mean())
	}
	if a.Ops[0].Errors != 1 {
		t.Errorf("read errors = %d", a.Ops[0].Errors)
	}

	if a.DiskBusy != 475 {
		t.Errorf("DiskBusy = %v, want 475", a.DiskBusy)
	}
	named, total := a.AttributedBusy()
	if named != 450 || total != 475 {
		t.Errorf("AttributedBusy = %v, %v; want 450, 475", named, total)
	}
	var busy sim.Duration
	for _, io := range a.IO {
		busy += io.Busy
		if io.Cause == disk.CauseLogAppend && (io.Requests != 2 || io.Sectors != 16) {
			t.Errorf("log-append bucket = %+v", io)
		}
	}
	if busy != a.DiskBusy {
		t.Errorf("ByCause busy %v != DiskBusy %v", busy, a.DiskBusy)
	}

	if a.Clean.Activations != 1 || a.Clean.BytesReclaimed != 300 {
		t.Errorf("clean stats = %+v", a.Clean)
	}
	if math.Abs(a.Clean.WriteCost-(400.0+100+300)/300) > 1e-12 {
		t.Errorf("clean write cost = %v", a.Clean.WriteCost)
	}
	if a.Clean.Utilization.Total() != 1 {
		t.Errorf("utilization histogram = %v", a.Clean.Utilization)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Span(Span{Op: "create", Path: "/f0", Start: sim.Time(10), End: sim.Time(30), CPU: 5})
	r.Span(Span{Op: "remove", Path: "/f0", Start: sim.Time(40), End: sim.Time(45), Err: "remove /f0: gone"})
	r.Span(Span{Op: "fsync", Path: "/c3/f1", Start: sim.Time(50), End: sim.Time(150), CPU: 7,
		Client: 3, Shard: 2, Phases: []Phase{
			{Kind: PhaseCPU, Dur: 10},
			{Kind: PhaseQueueWait, Dur: 15},
			{Kind: PhaseDiskService, Cause: disk.CauseOther, Dur: 5},
			{Kind: PhaseDiskService, Cause: disk.CauseLogAppend, Dur: 40},
			{Kind: PhaseDiskService, Cause: disk.CauseReadMiss, Dur: 20},
			{Kind: PhasePiggybackWait, Dur: 10},
		}})
	r.Record(disk.Event{Time: sim.Time(12), Kind: disk.OpWrite, Sector: 64, Sectors: 8,
		Sync: true, Cause: disk.CauseCheckpoint, Service: 700, Label: "checkpoint"})
	r.Record(disk.Event{Time: sim.Time(20), Kind: disk.OpRead, Sector: 8, Sectors: 2,
		Cause: disk.CauseReadMiss, Service: 200, Label: "file read"})
	r.Record(disk.Event{Time: sim.Time(90), Kind: disk.OpWrite, Sector: 4096, Sectors: 128,
		Sequential: true, SeekCylinders: 4, Cause: disk.CauseLogAppend, Service: 40, Wait: 15,
		Label: "segment", Client: 3, Shard: 2})
	r.Clean(CleanRecord{Time: sim.Time(25), Seg: 7, Utilization: 0.5,
		BytesRead: 1000, BytesCopied: 500, BytesReclaimed: 500})

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 7 {
		t.Fatalf("wrote %d lines, want 7:\n%s", n, buf.String())
	}

	st, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Spans, r.Spans()) {
		t.Errorf("spans did not round-trip:\nread %+v\nlive %+v", st.Spans, r.Spans())
	}
	// Sequential and SeekCylinders are not on the wire (FORMAT.md).
	live := r.Events()
	for i := range live {
		live[i].Sequential, live[i].SeekCylinders = false, 0
	}
	if !reflect.DeepEqual(st.Events, live) {
		t.Errorf("events did not round-trip:\nread %+v\nlive %+v", st.Events, live)
	}
	if !reflect.DeepEqual(st.Cleans, r.Cleans()) {
		t.Errorf("cleans did not round-trip:\nread %+v\nlive %+v", st.Cleans, r.Cleans())
	}
	if st.Samples != nil {
		t.Errorf("a trace decoded %d samples", len(st.Samples))
	}
	if parsed, want := st.Aggregates(), r.Aggregates(); !reflect.DeepEqual(parsed, want) {
		t.Errorf("aggregates differ:\nread %+v\nlive %+v", parsed, want)
	}
}

// TestReadJSONLBadLine feeds one good line and then one bad one: the
// reader must fail, naming line 2, rather than reclassify the record.
func TestReadJSONLBadLine(t *testing.T) {
	for _, bad := range []string{
		`not json`,
		`{"type":"span","v":3}`,
		`{"type":"span","phases":[{"kind":"nap","dur_ns":5}]}`,
		`{"type":"span","phases":[{"kind":"disk_service","cause":"gremlin","dur_ns":5}]}`,
		`{"type":"span","phases":[{"kind":"disk_service","dur_ns":5}]}`,
		`{"type":"span","phases":[{"kind":"cpu","cause":"gremlin","dur_ns":5}]}`,
		`{"type":"io","kind":"erase","cause":"log-append"}`,
		`{"type":"io","kind":"read","cause":"gremlin"}`,
		`{"type":"io","kind":"read"}`,
		`{"type":"metrics","v":99}`,
		`{"type":"metrics"}`,
	} {
		good := `{"type":"span","phases":[{"kind":"cpu","dur_ns":5}]}`
		_, err := ReadJSONL(strings.NewReader(good + "\n" + bad + "\n"))
		if err == nil {
			t.Errorf("accepted %s", bad)
		} else if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: error %q does not name the line", bad, err)
		}
	}
}

func TestResetDiscards(t *testing.T) {
	r := NewRecorder()
	r.Span(Span{Op: "x"})
	r.Record(disk.Event{})
	r.Clean(CleanRecord{})
	r.Reset()
	if len(r.Spans()) != 0 || len(r.Events()) != 0 || len(r.Cleans()) != 0 {
		t.Error("Reset left records behind")
	}
}
