package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"lfs/internal/disk"
	"lfs/internal/sim"
)

// record is the trace JSONL wire form: one line per span, disk event,
// or cleaner activation, discriminated by Type. Times are simulated
// nanoseconds since the simulation epoch. Metrics samples share the
// stream in their own wire form, Sample.
type record struct {
	Type string `json:"type"` // "span" | "io" | "clean"

	// V is the trace schema version. Version 2 added span phase
	// decomposition (Phases) and the io queue-wait split (Wait).
	// Files written before versioning carry no v field and parse as
	// 0, meaning v1; readers reject versions above the current one.
	V int `json:"v,omitempty"`

	// span
	Op    string `json:"op,omitempty"`
	Path  string `json:"path,omitempty"`
	Start int64  `json:"start_ns,omitempty"`
	End   int64  `json:"end_ns,omitempty"`
	CPU   int64  `json:"cpu,omitempty"`
	Err   string `json:"err,omitempty"`
	// Phases is the span's latency decomposition (v2): ordered
	// segments whose dur_ns sum to end_ns - start_ns exactly.
	Phases []phaseRecord `json:"phases,omitempty"`

	// span and io share Client: the issuing client ID in multi-client
	// runs; omitted (0) for unattributed traffic, so single-client
	// traces are byte-identical to those written before the field
	// existed.
	Client int `json:"client,omitempty"`

	// span and io also share Shard: the executing shard's 1-based ID
	// in sharded multi-log runs; omitted (0) for unsharded instances,
	// keeping pre-sharding traces byte-identical, same as Client.
	Shard int `json:"shard,omitempty"`

	// io
	Time    int64  `json:"time_ns,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Sector  int64  `json:"sector,omitempty"`
	Sectors int    `json:"sectors,omitempty"`
	Sync    bool   `json:"sync,omitempty"`
	Cause   string `json:"cause,omitempty"`
	Service int64  `json:"service_ns,omitempty"`
	// Wait is the request's queue wait (v2): time between issue and
	// the arm starting service, so wait_ns + service_ns spans the
	// request's life end to end. Omitted when zero.
	Wait  int64  `json:"wait_ns,omitempty"`
	Label string `json:"label,omitempty"`

	// clean (Time is shared with io)
	Seg            int     `json:"seg,omitempty"`
	Utilization    float64 `json:"util,omitempty"`
	BytesRead      int64   `json:"bytes_read,omitempty"`
	BytesCopied    int64   `json:"bytes_copied,omitempty"`
	BytesReclaimed int64   `json:"bytes_reclaimed,omitempty"`
	WriteCost      float64 `json:"write_cost,omitempty"`
}

// phaseRecord is one phase segment on the wire.
type phaseRecord struct {
	Kind string `json:"kind"`
	// Cause names the serviced request's IOCause for disk_service
	// phases; omitted for every other kind.
	Cause string `json:"cause,omitempty"`
	Dur   int64  `json:"dur_ns"`
}

// TraceVersion is the trace schema version WriteJSONL emits.
const TraceVersion = 2

// writeJSONL encodes each line as one JSON object per line through one
// buffered writer.
func writeJSONL[T any](w io.Writer, lines []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONL writes everything recorded so far as one JSON object per
// line, in record-type order (spans, then I/O, then cleans); within a
// type, records are in the order they were recorded, which is
// simulated-time order.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	recs := make([]record, 0, len(r.spans.buf)+len(r.events.buf)+len(r.cleans.buf))
	for _, s := range r.spans.all() {
		rec := record{Type: "span", V: TraceVersion, Op: s.Op, Path: s.Path,
			Start: int64(s.Start), End: int64(s.End), CPU: s.CPU, Err: s.Err,
			Client: s.Client, Shard: s.Shard}
		for _, p := range s.Phases {
			pr := phaseRecord{Kind: p.Kind.String(), Dur: int64(p.Dur)}
			if p.Kind == PhaseDiskService {
				pr.Cause = p.Cause.String()
			}
			rec.Phases = append(rec.Phases, pr)
		}
		recs = append(recs, rec)
	}
	for _, ev := range r.events.all() {
		recs = append(recs, record{Type: "io", V: TraceVersion, Time: int64(ev.Time), Kind: ev.Kind.String(),
			Sector: ev.Sector, Sectors: ev.Sectors, Sync: ev.Sync,
			Cause: ev.Cause.String(), Service: int64(ev.Service), Wait: int64(ev.Wait),
			Label: ev.Label, Client: ev.Client, Shard: ev.Shard})
	}
	for _, c := range r.cleans.all() {
		recs = append(recs, record{Type: "clean", V: TraceVersion, Time: int64(c.Time), Seg: c.Seg,
			Utilization: c.Utilization, BytesRead: c.BytesRead,
			BytesCopied: c.BytesCopied, BytesReclaimed: c.BytesReclaimed,
			WriteCost: c.WriteCost})
	}
	return writeJSONL(w, recs)
}

// Stream is one JSONL stream decoded by record type: the trace's
// spans, disk events and cleaner activations, and the metrics samples
// that may share the file with them. Each slice keeps its records in
// stream order.
type Stream struct {
	Spans   []Span
	Events  []disk.Event
	Cleans  []CleanRecord
	Samples []Sample
}

// ReadJSONL parses a JSONL stream of trace records (Recorder.WriteJSONL)
// and metrics samples (Sampler.WriteJSONL), in any mix or
// concatenation. Lines of any other type are skipped. A line that is
// not JSON, carries an unsupported schema version, or names an
// unknown phase kind, I/O kind or I/O cause fails the read with its
// line number.
func ReadJSONL(r io.Reader) (*Stream, error) {
	st := &Stream{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if raw := sc.Bytes(); len(raw) > 0 {
			if err := st.decode(raw); err != nil {
				return nil, fmt.Errorf("obs: line %d: %w", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return st, nil
}

// decode appends one line's record to the slice its type selects.
func (st *Stream) decode(raw []byte) error {
	var head struct {
		Type string `json:"type"`
		V    int    `json:"v"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return err
	}
	switch head.Type {
	case "span", "io", "clean":
		if head.V > TraceVersion {
			return fmt.Errorf("trace schema version %d newer than supported %d", head.V, TraceVersion)
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return err
		}
		return st.addTrace(rec)
	case "metrics":
		if head.V != MetricsSchemaVersion {
			return fmt.Errorf("metrics schema version %d, want %d", head.V, MetricsSchemaVersion)
		}
		var sm Sample
		if err := json.Unmarshal(raw, &sm); err != nil {
			return err
		}
		st.Samples = append(st.Samples, sm)
	}
	return nil
}

// addTrace converts one trace record back to its in-memory form.
func (st *Stream) addTrace(rec record) error {
	switch rec.Type {
	case "span":
		s := Span{Op: rec.Op, Path: rec.Path, Start: sim.Time(rec.Start), End: sim.Time(rec.End),
			CPU: rec.CPU, Err: rec.Err, Client: rec.Client, Shard: rec.Shard}
		for _, pr := range rec.Phases {
			kind, ok := ParsePhaseKind(pr.Kind)
			if !ok {
				return fmt.Errorf("unknown phase kind %q", pr.Kind)
			}
			// Only disk_service phases carry a cause; on the others an
			// absent cause is the zero value, CauseOther.
			cause := disk.CauseOther
			if pr.Cause != "" || kind == PhaseDiskService {
				if cause, ok = disk.ParseIOCause(pr.Cause); !ok {
					return fmt.Errorf("%s phase: unknown I/O cause %q", pr.Kind, pr.Cause)
				}
			}
			s.Phases = append(s.Phases, Phase{Kind: kind, Cause: cause, Dur: sim.Duration(pr.Dur)})
		}
		st.Spans = append(st.Spans, s)
	case "io":
		kind := disk.OpRead
		if rec.Kind == disk.OpWrite.String() {
			kind = disk.OpWrite
		} else if rec.Kind != disk.OpRead.String() {
			return fmt.Errorf("unknown io kind %q", rec.Kind)
		}
		cause, ok := disk.ParseIOCause(rec.Cause)
		if !ok {
			return fmt.Errorf("io: unknown I/O cause %q", rec.Cause)
		}
		st.Events = append(st.Events, disk.Event{Time: sim.Time(rec.Time), Kind: kind,
			Sector: rec.Sector, Sectors: rec.Sectors, Sync: rec.Sync,
			Cause: cause, Service: sim.Duration(rec.Service), Wait: sim.Duration(rec.Wait),
			Label: rec.Label, Client: rec.Client, Shard: rec.Shard})
	case "clean":
		st.Cleans = append(st.Cleans, CleanRecord{Time: sim.Time(rec.Time), Seg: rec.Seg,
			Utilization: rec.Utilization, BytesRead: rec.BytesRead,
			BytesCopied: rec.BytesCopied, BytesReclaimed: rec.BytesReclaimed,
			WriteCost: rec.WriteCost})
	}
	return nil
}
