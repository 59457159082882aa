package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"testing"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/obs"
	"lfs/internal/server"
	"lfs/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files")

const v1Fixture = "testdata/v1_trace.jsonl"

// v1Trace returns the committed v1 trace's text and its decoding.
func v1Trace(t *testing.T) ([]byte, *obs.Stream) {
	t.Helper()
	raw, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	st, err := obs.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("v1 trace no longer parses: %v", err)
	}
	return raw, st
}

// TestV1TraceGolden pins backward compatibility with trace schema v1:
// a committed pre-phases trace (no v field, no phases, no wait_ns)
// must still parse, and the aggregate summary must stay byte-identical
// to the committed golden — upgrading the schema must never change
// what old traces report.
func TestV1TraceGolden(t *testing.T) {
	raw, st := v1Trace(t)
	if bytes.Contains(raw, []byte(`"v":`)) || bytes.Contains(raw, []byte(`"phases"`)) {
		t.Fatalf("%s is not v1: it carries a version or phases", v1Fixture)
	}

	var buf bytes.Buffer
	summarise(&buf, v1Fixture, st)
	const golden = "testdata/v1_summary.golden"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("v1 summary drifted from golden (rerun with -update if intended)\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestV1PhaselessSpansUnattributed checks that v1 spans — which carry
// no phase lists — surface their whole latency as unattributed in the
// phase aggregation rather than being silently dropped or miscounted.
func TestV1PhaselessSpansUnattributed(t *testing.T) {
	_, st := v1Trace(t)
	for _, o := range st.Aggregates().Ops {
		if got := attributed(o); got != 0 {
			t.Errorf("op %s: v1 spans attributed %v to phases; want 0", o.Op, got)
		}
	}
}

// TestReportJSONShape checks the -json report parses back and keeps
// phase entries in fixed kind order with every kind present.
func TestReportJSONShape(t *testing.T) {
	raw, st := v1Trace(t)
	r := newReport(st)
	if want := bytes.Count(raw, []byte("\n")); r.Records != want {
		t.Errorf("report records = %d, want %d", r.Records, want)
	}
	for _, o := range r.Ops {
		if len(o.Phases) != int(obs.NumPhaseKinds) {
			t.Fatalf("op %s: %d phase entries, want %d", o.Op, len(o.Phases), obs.NumPhaseKinds)
		}
		for k := obs.PhaseKind(0); k < obs.NumPhaseKinds; k++ {
			if o.Phases[k].Kind != k.String() {
				t.Errorf("op %s phase %d = %q, want %q", o.Op, k, o.Phases[k].Kind, k.String())
			}
		}
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestMixedStreamReadsAsItsParts holds FORMAT.md's promise that a
// trace and a metrics series may share one file: on their
// concatenation every lfstrace report prints exactly what it prints
// on the trace alone.
func TestMixedStreamReadsAsItsParts(t *testing.T) {
	rec, samp := obs.NewRecorder(), obs.NewSampler(10*sim.Millisecond)
	cfg := core.DefaultConfig()
	cfg.GroupCommit = true
	cfg.Trace, cfg.Metrics = rec, samp
	d := disk.NewMem(64<<20, sim.NewClock())
	if err := core.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Run(fs, server.Config{Clients: 4, OpsPerClient: 16,
		WriteSize: 4096, FilesPerClient: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	var trace, metrics bytes.Buffer
	if err := rec.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if err := samp.WriteJSONL(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Len() == 0 {
		t.Fatal("the run took no samples; the mixed stream is the trace alone")
	}
	mixed := append(append([]byte(nil), trace.Bytes()...), metrics.Bytes()...)

	for _, c := range []struct {
		name   string
		render func(io.Writer, *obs.Stream) error
	}{
		{"summary", func(w io.Writer, st *obs.Stream) error { summarise(w, "in", st); return nil }},
		{"critpath", func(w io.Writer, st *obs.Stream) error { summariseCritPath(w, "in", st); return nil }},
		{"json", func(w io.Writer, st *obs.Stream) error { return newReport(st).WriteJSON(w) }},
		{"raw", func(w io.Writer, st *obs.Stream) error { dump(w, st); return nil }},
	} {
		render := func(in []byte) string {
			st, err := obs.ReadJSONL(bytes.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := c.render(&out, st); err != nil {
				t.Fatal(err)
			}
			return out.String()
		}
		if got, want := render(mixed), render(trace.Bytes()); got != want {
			t.Errorf("%s on trace+metrics differs from the trace alone:\n--- mixed ---\n%s\n--- trace ---\n%s",
				c.name, got, want)
		}
	}
}
