package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// The layers the benchmark records spans for. A span belongs to the
// layer whose boundary it brackets: "bench" is the benchmark's own
// script (workload, phases, set-up, epilogue), "server" is server.Run,
// "vfs" is one call through the FS wrapper, "store" is one call
// through the timing disk.Store.
const (
	layerBench  = "bench"
	layerServer = "server"
	layerVFS    = "vfs"
	layerStore  = "store"
)

// span is one bracketed interval of host time. Spans nest strictly
// (one goroutine, one stack), so Parent is the span that was open when
// this one began and children never overlap.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced repetition's spans in memory; they are
// written out after the run. All methods are no-ops on a nil tracer,
// so untraced repetitions read no host clock inside the loop.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int32 // innermost open span, -1 when none
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18), cur: -1}
}

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(layer, name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: t.cur, Layer: layer, Name: name, Start: int64(time.Since(t.t0))})
	t.cur = id
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	t.cur = s.Parent
}

// selfTimes returns each span's self time: its duration minus the part
// its direct children cover. Children nest inside their parent, so the
// difference is never negative on a monotonic clock; it is clamped all
// the same so one bad clock read cannot turn into negative time.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// layers lists the span layers, outermost first.
var layers = []string{layerBench, layerServer, layerVFS, layerStore}

// layerSelf sums self time by layer.
func layerSelf(spans []span) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for i, d := range selfTimes(spans) {
		out[spans[i].Layer] += d
	}
	return out
}

// selfTimeError checks the span accounting: the per-layer self times
// of a trace must add up to its root span's duration, the traced wall
// time. It returns the relative difference.
func selfTimeError(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	self := layerSelf(spans)
	var sum int64
	for _, l := range layers {
		sum += self[l]
	}
	root := spans[0].End - spans[0].Start
	return ratio(float64(sum-root), float64(root))
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
