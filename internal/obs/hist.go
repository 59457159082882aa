package obs

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bucket histogram: Counts[i] holds observations
// v with Bounds[i-1] <= v < Bounds[i]; the last bucket is unbounded
// above. len(Counts) == len(Bounds)+1. Non-finite observations (NaN,
// ±Inf) never land in a bucket — NaN compares false against every
// bound, so it would otherwise silently inflate the unbounded top
// bucket — and are counted in NonFinite instead. The JSON tags are the
// metrics JSONL wire form (FORMAT.md "Metrics JSONL").
type Histogram struct {
	Bounds    []float64 `json:"bounds"`
	Counts    []int64   `json:"counts"`
	NonFinite int64     `json:"nonfinite,omitempty"`
}

// NewHistogram returns a histogram over the given ascending upper
// bounds.
func NewHistogram(bounds ...float64) Histogram {
	return Histogram{Bounds: bounds, Counts: make([]int64, len(bounds)+1)}
}

// NewLatencyHistogram returns the log-scale latency histogram used for
// per-op latencies, in seconds: 1µs to 1s in roughly 1-3-10 steps.
func NewLatencyHistogram() Histogram {
	return NewHistogram(1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1)
}

// NewUtilizationHistogram returns the segment-utilisation histogram:
// ten linear buckets over [0, 1].
func NewUtilizationHistogram() Histogram {
	return NewHistogram(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
}

// Observe adds one observation. Non-finite values are counted in
// NonFinite, not in any bucket.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.NonFinite++
		return
	}
	for i, b := range h.Bounds {
		if v < b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Counts)-1]++
}

// Total returns the number of bucketed (finite) observations.
func (h Histogram) Total() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Merge adds other's counts into h. The bucket layouts must match in
// both length and bound values: two same-length histograms over
// different bounds would otherwise merge without error into a
// meaningless sum.
func (h *Histogram) Merge(other Histogram) error {
	if len(h.Counts) != len(other.Counts) {
		return fmt.Errorf("obs: merging histograms with %d and %d buckets",
			len(h.Counts), len(other.Counts))
	}
	for i, b := range h.Bounds {
		if b != other.Bounds[i] {
			return fmt.Errorf("obs: merging histograms with different bounds (%g vs %g at bucket %d)",
				b, other.Bounds[i], i)
		}
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.NonFinite += other.NonFinite
	return nil
}

// Quantile returns the bucket-interpolated p-quantile (p in [0,1]) of
// the finite observations: the bucket holding the p·Total()-th
// observation is found and the value is interpolated linearly inside
// it. The first bucket interpolates over [0, Bounds[0]) (or from
// Bounds[0] when it is negative); the unbounded top bucket returns its
// lower bound, a deliberate underestimate. An empty histogram returns
// 0.
func (h Histogram) Quantile(p float64) float64 {
	total := h.Total()
	if total == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := p * float64(total)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) < rank {
			cum += float64(c)
			continue
		}
		// The rank lands in bucket i.
		if i == len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		} else if h.Bounds[0] < 0 {
			lo = h.Bounds[0]
		}
		hi := h.Bounds[i]
		frac := (rank - cum) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.Bounds[len(h.Bounds)-1]
}

// String renders the non-empty buckets on one line, e.g.
// "[0.1,0.2):12 [0.8,0.9):3".
func (h Histogram) String() string {
	var b strings.Builder
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch {
		case i == 0:
			fmt.Fprintf(&b, "[<%g):%d", h.Bounds[0], c)
		case i == len(h.Bounds):
			fmt.Fprintf(&b, "[>=%g):%d", h.Bounds[i-1], c)
		default:
			fmt.Fprintf(&b, "[%g,%g):%d", h.Bounds[i-1], h.Bounds[i], c)
		}
	}
	if b.Len() == 0 {
		return "(empty)"
	}
	return b.String()
}
