package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"lfs/internal/sim"
)

func TestNilSamplerSafe(t *testing.T) {
	var s *Sampler
	s.Tick(0)
	s.SampleNow(0)
	s.SetLabel("x")
	if s.Registry() != nil {
		t.Fatal("nil sampler returned a registry")
	}
	if err := s.Bind(); err != nil {
		t.Fatalf("nil Bind: %v", err)
	}
	if got := s.Samples(); got != nil {
		t.Fatalf("nil Samples() = %v, want nil", got)
	}
	if err := s.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
	if s.Interval() != 0 {
		t.Fatal("nil Interval() != 0")
	}
}

func TestSamplerTickSchedule(t *testing.T) {
	s := NewSampler(sim.Duration(100))
	var n int64
	s.Registry().Counter("n", func() int64 { return n })

	// First tick takes the baseline regardless of time.
	s.Tick(sim.Time(5))
	n = 10
	// Before the next boundary: no sample.
	s.Tick(sim.Time(50))
	// At/after the boundary: sample.
	s.Tick(sim.Time(105))
	n = 30
	// Boundary is rescheduled from the sample time, not accumulated.
	s.Tick(sim.Time(150))
	s.Tick(sim.Time(205))

	got := s.Samples()
	if len(got) != 3 {
		t.Fatalf("%d samples, want 3", len(got))
	}
	wantTimes := []int64{5, 105, 205}
	wantN := []int64{0, 10, 30}
	for i, sm := range got {
		if sm.Time != wantTimes[i] || sm.Seq != int64(i) || sm.Counters["n"] != wantN[i] {
			t.Errorf("sample %d = {time %d seq %d n %d}, want {time %d seq %d n %d}",
				i, sm.Time, sm.Seq, sm.Counters["n"], wantTimes[i], int64(i), wantN[i])
		}
	}
}

func TestSamplerDerivedGauges(t *testing.T) {
	s := NewSampler(sim.Duration(sim.Second))
	var ops, busy int64
	lat := NewLatencyHistogram()
	s.Registry().RatedCounter("ops", func() int64 { return ops })
	s.Registry().FracCounter("busy_ns", func() int64 { return busy })
	s.Registry().Gauge("bad", func() float64 { return math.NaN() })
	s.Registry().QuantileHist("lat", func() Histogram { return lat }, 0.5, 0.95)

	s.Tick(0) // baseline
	ops, busy = 50, int64(sim.Second)/4
	for i := 0; i < 100; i++ {
		lat.Observe(5e-5)
	}
	s.Tick(sim.Time(sim.Second))

	sm := s.Samples()[1]
	if got := sm.Gauges["ops.rate"]; got != 50 {
		t.Errorf("ops.rate = %g, want 50", got)
	}
	if got := sm.Gauges["busy_ns.frac"]; got != 0.25 {
		t.Errorf("busy_ns.frac = %g, want 0.25", got)
	}
	if got := sm.Gauges["bad"]; got != 0 {
		t.Errorf("non-finite gauge = %g, want sanitised 0", got)
	}
	p50 := sm.Gauges["lat.p50"]
	if p50 < 1e-5 || p50 >= 1e-4 {
		t.Errorf("lat.p50 = %g, want inside bucket [1e-5, 1e-4)", p50)
	}
	if h, ok := sm.Hists["lat"]; !ok || h.Total() != 100 {
		t.Errorf("lat histogram snapshot missing or wrong total")
	}

	// Next interval: no new observations, so the delta quantile is 0
	// and the rate drops to 0.
	s.Tick(sim.Time(2 * sim.Second))
	sm = s.Samples()[2]
	if got := sm.Gauges["ops.rate"]; got != 0 {
		t.Errorf("idle ops.rate = %g, want 0", got)
	}
	if got := sm.Gauges["lat.p50"]; got != 0 {
		t.Errorf("idle lat.p50 = %g, want 0 (empty delta histogram)", got)
	}
}

func TestSamplerJSONLRoundTrip(t *testing.T) {
	s := NewSampler(sim.Duration(100))
	s.SetLabel("lfs-0")
	var n int64
	u := NewUtilizationHistogram()
	s.Registry().Counter("n", func() int64 { return n })
	s.Registry().Gauge("g", func() float64 { return float64(n) / 2 })
	s.Registry().Hist("util", func() Histogram { return u })

	s.Tick(0)
	n = 4
	u.Observe(0.35)
	s.Tick(sim.Time(100))

	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// A record type the reader does not know is skipped.
	stream := `{"type":"segment","seg":3}` + "\n" + buf.String()
	st, err := ReadJSONL(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	got := st.Samples
	if len(got) != 2 {
		t.Fatalf("%d samples decoded, want 2", len(got))
	}
	sm := got[1]
	if sm.FS != "lfs-0" || sm.V != MetricsSchemaVersion || sm.Counters["n"] != 4 || sm.Gauges["g"] != 2 {
		t.Fatalf("decoded sample %+v wrong", sm)
	}
	if h := sm.Hists["util"]; h.Total() != 1 || h.Counts[3] != 1 {
		t.Fatalf("decoded util histogram %v wrong", h)
	}

	names := SeriesNames(got)
	want := []string{"g", "n"}
	if len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("SeriesNames = %v, want %v", names, want)
	}

	// Byte determinism: encoding the same samples twice is identical.
	var buf2 bytes.Buffer
	if err := s.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteJSONL output differs across calls")
	}
}

func TestSamplerBindOnce(t *testing.T) {
	s := NewSampler(sim.Duration(1))
	if err := s.Bind(); err != nil {
		t.Fatalf("first Bind: %v", err)
	}
	if err := s.Bind(); err == nil {
		t.Fatal("second Bind succeeded; sampler must serve one instance")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	s := NewSampler(sim.Duration(1))
	s.Registry().Counter("x", func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	s.Registry().Gauge("x", func() float64 { return 0 })
}
