package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"lfs/internal/sim"
)

// This file is the simulated-clock metrics plane: a pull-model
// Registry of named counters/gauges/histograms and a Sampler that, at
// a fixed simulated interval, reads every registered metric and
// appends one Sample to an in-memory time series (exported as JSONL,
// replayed by cmd/lfstop).
//
// Like tracing, sampling must perturb the simulated timeline by
// exactly zero: collectors only *read* state (the file system calls
// Sampler.Tick at operation end, with its lock held, so collectors
// never lock), and the sampler itself never touches the clock, the
// CPU model, or the disk. For a fixed seed the sample series is
// byte-deterministic: collection order is registration order, JSON
// maps marshal with sorted keys, and nothing reads the wall clock.

// MetricsSchemaVersion is the metrics JSONL schema version stamped
// into every sample's "v" field (see FORMAT.md "Metrics JSONL").
const MetricsSchemaVersion = 1

// Sample is one metrics snapshot: every registered counter, gauge,
// and histogram read at one simulated instant, plus the gauges the
// sampler derives from interval deltas (rates, busy fractions,
// latency percentiles). It is the JSONL wire form; map keys marshal
// sorted, so a sample's encoding is deterministic.
type Sample struct {
	Type string `json:"type"` // always "metrics"
	V    int    `json:"v"`    // schema version
	// FS labels the emitting instance when one file carries several
	// (lfsbench -metrics on a sweep experiment).
	FS   string `json:"fs,omitempty"`
	Time int64  `json:"time_ns"`
	Seq  int64  `json:"seq"`

	Counters map[string]int64     `json:"counters,omitempty"`
	Gauges   map[string]float64   `json:"gauges,omitempty"`
	Hists    map[string]Histogram `json:"hists,omitempty"`
}

// metricDef is one registered metric: a name, what to read, and which
// derived gauges the sampler computes from its interval deltas.
type metricDef struct {
	name  string
	readC func() int64
	readG func() float64
	readH func() Histogram
	// rate: counters also emit name+".rate", the per-interval delta
	// divided by the interval in simulated seconds.
	rate bool
	// frac: nanosecond counters also emit name+".frac", the interval
	// delta divided by the interval length (a busy fraction).
	frac bool
	// quantiles: histograms also emit name+".pNN" gauges, the
	// bucket-interpolated quantiles of the interval's delta histogram.
	quantiles []float64
}

// Registry is an ordered set of named metric collectors. Collectors
// are closures over the owning subsystem's state; they are invoked
// only from Sampler sampling calls, which the owner makes while
// holding its own lock, so collectors must not lock and must not
// mutate anything. Registration happens once, at mount, before any
// sampling; the registry itself is not safe for concurrent use.
type Registry struct {
	defs  []metricDef
	names map[string]bool
}

// register adds a definition, panicking on duplicate names (two
// producers claiming one series is a wiring bug, not a runtime
// condition).
func (r *Registry) register(d metricDef) {
	if r.names == nil {
		r.names = make(map[string]bool)
	}
	if r.names[d.name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", d.name))
	}
	r.names[d.name] = true
	r.defs = append(r.defs, d)
}

// Counter registers a cumulative counter read by fn.
func (r *Registry) Counter(name string, fn func() int64) {
	r.register(metricDef{name: name, readC: fn})
}

// RatedCounter registers a cumulative counter that also emits
// name+".rate": the per-interval delta per simulated second.
func (r *Registry) RatedCounter(name string, fn func() int64) {
	r.register(metricDef{name: name, readC: fn, rate: true})
}

// FracCounter registers a cumulative nanosecond counter that also
// emits name+".frac": the interval delta over the interval length,
// i.e. a busy fraction in [0,1] (values above 1 are possible when the
// counted time is accounted late, e.g. queued writes dispatched at a
// barrier).
func (r *Registry) FracCounter(name string, fn func() int64) {
	r.register(metricDef{name: name, readC: fn, frac: true})
}

// Gauge registers an instantaneous value read by fn.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.register(metricDef{name: name, readG: fn})
}

// Hist registers a cumulative histogram read by fn.
func (r *Registry) Hist(name string, fn func() Histogram) {
	r.register(metricDef{name: name, readH: fn})
}

// QuantileHist registers a cumulative histogram that also emits
// name+".pNN" gauges: the given quantiles of the *interval delta*
// histogram (the distribution of observations made since the previous
// sample), bucket-interpolated by Histogram.Quantile.
func (r *Registry) QuantileHist(name string, fn func() Histogram, qs ...float64) {
	r.register(metricDef{name: name, readH: fn, quantiles: qs})
}

// Sampler drives periodic metric collection on the simulated clock.
// The owning file system calls Tick at the end of every operation (and
// the multi-client event loop pumps TickMetrics between operations);
// whenever the clock has crossed the next interval boundary, every
// registered metric is read and one Sample appended. All methods are
// safe on a nil *Sampler and cost nothing, mirroring *Recorder.
type Sampler struct {
	// mu guards everything below: Tick runs under the owning file
	// system's lock while Samples/WriteJSONL may be called from other
	// goroutines.
	mu       sync.Mutex
	reg      Registry
	interval sim.Duration
	label    string
	// bound is set when a file system attaches the sampler at mount;
	// a sampler serves exactly one instance (its registry closures
	// capture that instance's state).
	bound bool
	// samples is the series so far; its last sample sets the next
	// interval boundary and is the base of the interval deltas (rates,
	// fractions, quantiles).
	samples []Sample
}

// NewSampler returns a sampler emitting one sample per interval of
// simulated time.
func NewSampler(interval sim.Duration) *Sampler {
	if interval <= 0 {
		panic(fmt.Sprintf("obs: non-positive metrics interval %v", interval))
	}
	return &Sampler{interval: interval}
}

// Interval returns the sampling interval.
func (s *Sampler) Interval() sim.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}

// SetLabel sets the instance label stamped into every sample's "fs"
// field (lfsbench uses it to tell sweep instances apart).
func (s *Sampler) SetLabel(label string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.label = label
	s.mu.Unlock()
}

// Registry returns the sampler's metric registry for producers to
// register against. Must only be used before sampling starts.
func (s *Sampler) Registry() *Registry {
	if s == nil {
		return nil
	}
	return &s.reg
}

// Bind claims the sampler for one file-system instance; a second Bind
// fails. Mount calls it so that a sampler accidentally shared between
// two instances is a mount-time error instead of an interleaved,
// double-registered series.
func (s *Sampler) Bind() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bound {
		return fmt.Errorf("obs: metrics sampler already attached to a file system")
	}
	s.bound = true
	return nil
}

// Tick samples if the clock has reached the next interval boundary
// (the first Tick takes the baseline sample). The caller holds the
// lock protecting the state the registered collectors read.
func (s *Sampler) Tick(now sim.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.samples); n > 0 && now < sim.Time(s.samples[n-1].Time).Add(s.interval) {
		return
	}
	s.sampleLocked(now)
}

// SampleNow takes a sample unconditionally — experiments force one at
// run end so the final sample equals the end-of-run aggregates.
func (s *Sampler) SampleNow(now sim.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sampleLocked(now)
}

// sampleLocked reads every registered metric and appends one sample.
// Collection only reads: no clock, CPU, disk, or RNG access, so a run
// with sampling enabled replays the identical simulated timeline.
func (s *Sampler) sampleLocked(now sim.Time) {
	sm := Sample{
		Type: "metrics", V: MetricsSchemaVersion, FS: s.label,
		Time: int64(now), Seq: int64(len(s.samples)),
	}
	// The first sample has no predecessor: its interval is 0 and its
	// deltas are the cumulative values.
	var prev Sample
	var interval sim.Duration
	if n := len(s.samples); n > 0 {
		prev = s.samples[n-1]
		interval = now.Sub(sim.Time(prev.Time))
	}
	for _, d := range s.reg.defs {
		switch {
		case d.readC != nil:
			v := d.readC()
			if sm.Counters == nil {
				sm.Counters = make(map[string]int64)
			}
			sm.Counters[d.name] = v
			delta := v - prev.Counters[d.name]
			if d.rate {
				rate := 0.0
				if interval > 0 {
					rate = float64(delta) / interval.Seconds()
				}
				s.setGauge(&sm, d.name+".rate", rate)
			}
			if d.frac {
				frac := 0.0
				if interval > 0 {
					frac = float64(delta) / float64(interval)
				}
				s.setGauge(&sm, d.name+".frac", frac)
			}
		case d.readG != nil:
			s.setGauge(&sm, d.name, d.readG())
		case d.readH != nil:
			h := d.readH()
			h = Histogram{Bounds: append([]float64(nil), h.Bounds...),
				Counts: append([]int64(nil), h.Counts...), NonFinite: h.NonFinite}
			if sm.Hists == nil {
				sm.Hists = make(map[string]Histogram)
			}
			sm.Hists[d.name] = h
			if len(d.quantiles) > 0 {
				delta := Histogram{Bounds: h.Bounds, Counts: deltaCounts(h.Counts, prev.Hists[d.name].Counts)}
				for _, q := range d.quantiles {
					s.setGauge(&sm, fmt.Sprintf("%s.p%g", d.name, q*100), delta.Quantile(q))
				}
			}
		}
	}
	s.samples = append(s.samples, sm)
}

// setGauge stores a derived or read gauge, sanitising non-finite
// values to 0 (encoding/json rejects NaN and ±Inf outright).
func (s *Sampler) setGauge(sm *Sample, name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if sm.Gauges == nil {
		sm.Gauges = make(map[string]float64)
	}
	sm.Gauges[name] = v
}

// deltaCounts returns cur-prev bucket-wise; a nil prev means the full
// cumulative counts (first interval).
func deltaCounts(cur, prev []int64) []int64 {
	out := append([]int64(nil), cur...)
	if len(prev) == len(cur) {
		for i := range out {
			out[i] -= prev[i]
		}
	}
	return out
}

// Samples returns a copy of the samples taken so far.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
}

// WriteJSONL writes every sample as one JSON object per line, in
// sample order. Byte-deterministic for a deterministic run: map keys
// marshal sorted and floats use Go's shortest round-trip form.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeJSONL(w, s.samples)
}

// SeriesNames returns the sorted union of counter and gauge series
// names across samples, for replay tools.
func SeriesNames(samples []Sample) []string {
	set := make(map[string]bool)
	for _, sm := range samples {
		for n := range sm.Counters {
			set[n] = true
		}
		for n := range sm.Gauges {
			set[n] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
