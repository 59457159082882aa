// Command lfstrace summarises a JSONL trace written by the tracing
// subsystem (lfsbench -experiment trace -trace out.jsonl, or any
// program calling TraceRecorder.WriteJSONL).
//
// Usage:
//
//	lfstrace out.jsonl           # aggregate summary
//	lfstrace -critpath out.jsonl # latency decomposition by phase
//	lfstrace -json out.jsonl     # machine-readable report
//	lfstrace -raw out.jsonl      # re-print every record one per line
//	lfstrace < out.jsonl         # read from stdin
//
// The input is read by obs.ReadJSONL, the one decoder of both JSONL
// streams: metrics samples sharing the file are skipped, so every
// report on a trace+metrics stream equals the report on the trace
// alone. -raw prints spans, then io, then cleans — the order
// Recorder.WriteJSONL writes them.
//
// The summary has three sections: per-operation latency statistics
// (with a log-scale histogram), the disk busy-time decomposition by
// I/O cause, and the cleaner activation summary with the paper's
// write cost.
//
// -critpath reads the spans' phase lists (trace schema v2) and prints
// each operation's latency decomposed across the phase kinds — CPU,
// lock wait, disk queue wait and service, group-commit leader and
// piggyback waits, cleaner interference, cross-shard fan-out — plus a
// top-blame summary naming the wait that owns each operation's time.
// Spans from v1 traces carry no phases and appear as unattributed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"lfs/internal/obs"
	"lfs/internal/sim"
)

func main() {
	raw := flag.Bool("raw", false, "dump records instead of aggregating")
	critpath := flag.Bool("critpath", false, "decompose each operation's latency by phase")
	jsonOut := flag.Bool("json", false, "write the aggregate report as JSON")
	flag.Parse()

	var in io.Reader = os.Stdin
	name := "stdin"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfstrace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}
	st, err := obs.ReadJSONL(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfstrace: %v\n", err)
		os.Exit(1)
	}
	switch {
	case *raw:
		dump(os.Stdout, st)
	case *jsonOut:
		if err := newReport(st).WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "lfstrace: %v\n", err)
			os.Exit(1)
		}
	case *critpath:
		summariseCritPath(os.Stdout, name, st)
	default:
		summarise(os.Stdout, name, st)
	}
}

// records counts the trace records of a stream.
func records(st *obs.Stream) int { return len(st.Spans) + len(st.Events) + len(st.Cleans) }

// dump prints every trace record on one line.
func dump(w io.Writer, st *obs.Stream) {
	for _, s := range st.Spans {
		status := "ok"
		if s.Err != "" {
			status = s.Err
		}
		fmt.Fprintf(w, "%-14v span  %-8s %-24s %12v cpu=%-8d %s\n",
			s.Start, s.Op, s.Path, s.Latency(), s.CPU, status)
	}
	for _, ev := range st.Events {
		fmt.Fprintf(w, "%-14v io    %-5s sector=%-9d n=%-5d %-14s %12v %s\n",
			ev.Time, ev.Kind, ev.Sector, ev.Sectors, ev.Cause, ev.Service, ev.Label)
	}
	for _, c := range st.Cleans {
		fmt.Fprintf(w, "%-14v clean seg=%-6d util=%.3f read=%d copied=%d reclaimed=%d cost=%.2f\n",
			c.Time, c.Seg, c.Utilization,
			c.BytesRead, c.BytesCopied, c.BytesReclaimed, c.WriteCost)
	}
}

func summarise(w io.Writer, name string, st *obs.Stream) {
	agg := st.Aggregates()
	fmt.Fprintf(w, "%s: %d records\n\n", name, records(st))

	if len(agg.Ops) > 0 {
		fmt.Fprintf(w, "operations\n")
		fmt.Fprintf(w, "%-10s %8s %6s %12s %12s %12s %12s %12s %12s %12s\n",
			"op", "count", "errs", "mean", "min", "max", "p50", "p95", "p99", "cpu/op")
		for _, o := range agg.Ops {
			cpuPerOp := int64(0)
			if o.Count > 0 {
				cpuPerOp = o.CPU / o.Count
			}
			fmt.Fprintf(w, "%-10s %8d %6d %12v %12v %12v %12v %12v %12v %12d\n",
				o.Op, o.Count, o.Errors, o.Mean(), o.Min, o.Max,
				quantileDur(o.Latency, 0.5), quantileDur(o.Latency, 0.95),
				quantileDur(o.Latency, 0.99), cpuPerOp)
		}
		fmt.Fprintf(w, "\nlatency histograms (seconds)\n")
		for _, o := range agg.Ops {
			fmt.Fprintf(w, "%-10s %v\n", o.Op, o.Latency)
		}
		fmt.Fprintln(w)
	}

	if len(agg.IO) > 0 {
		fmt.Fprintf(w, "disk busy time by cause (total %v)\n", agg.DiskBusy)
		for _, io := range agg.IO {
			fmt.Fprintf(w, "  %-14s %8d reqs %10d sectors %14v (%5.1f%%)\n",
				io.Cause, io.Requests, io.Sectors, io.Busy,
				100*io.Busy.Seconds()/agg.DiskBusy.Seconds())
		}
		named, total := agg.AttributedBusy()
		fmt.Fprintf(w, "  attributed to a named cause: %.2f%%\n\n",
			100*named.Seconds()/total.Seconds())
	}

	if agg.Clean.Activations > 0 {
		c := agg.Clean
		fmt.Fprintf(w, "cleaner\n")
		fmt.Fprintf(w, "  activations     %d\n", c.Activations)
		fmt.Fprintf(w, "  bytes read      %d\n", c.BytesRead)
		fmt.Fprintf(w, "  bytes copied    %d\n", c.BytesCopied)
		fmt.Fprintf(w, "  bytes reclaimed %d\n", c.BytesReclaimed)
		fmt.Fprintf(w, "  write cost      %.2f\n", c.WriteCost)
		fmt.Fprintf(w, "  victim util     %v\n", c.Utilization)
	}
}

// attributed sums an op's per-phase totals; Total minus it is latency
// from spans without phase lists (v1 traces).
func attributed(o obs.OpStats) sim.Duration {
	var sum sim.Duration
	for _, d := range o.Phase {
		sum += d
	}
	return sum
}

// summariseCritPath prints each operation's latency decomposed by
// phase kind, then names the wait that owns each operation's time.
func summariseCritPath(w io.Writer, name string, st *obs.Stream) {
	agg := st.Aggregates()
	fmt.Fprintf(w, "%s: critical path - share of each op's total latency by phase\n\n", name)
	if len(agg.Ops) == 0 {
		fmt.Fprintf(w, "no spans\n")
		return
	}
	fmt.Fprintf(w, "%-10s %8s %12s", "op", "count", "total")
	for k := obs.PhaseKind(0); k < obs.NumPhaseKinds; k++ {
		fmt.Fprintf(w, " %14s", k.String())
	}
	fmt.Fprintf(w, " %14s\n", "unattrib")
	for _, o := range agg.Ops {
		fmt.Fprintf(w, "%-10s %8d %12v", o.Op, o.Count, o.Total)
		share := func(d sim.Duration) float64 {
			if o.Total <= 0 {
				return 0
			}
			return 100 * d.Seconds() / o.Total.Seconds()
		}
		for k := obs.PhaseKind(0); k < obs.NumPhaseKinds; k++ {
			fmt.Fprintf(w, " %13.1f%%", share(o.Phase[k]))
		}
		fmt.Fprintf(w, " %13.1f%%\n", share(o.Total-attributed(o)))
	}

	fmt.Fprintf(w, "\ntop blame (largest wait per op; cpu excluded)\n")
	for _, o := range agg.Ops {
		top := obs.PhaseCPU
		for k := obs.PhaseCPU + 1; k < obs.NumPhaseKinds; k++ {
			if o.Phase[k] > o.Phase[top] || top == obs.PhaseCPU && o.Phase[k] > 0 {
				top = k
			}
		}
		if top == obs.PhaseCPU {
			fmt.Fprintf(w, "  %-10s all compute (no waits attributed)\n", o.Op)
			continue
		}
		fmt.Fprintf(w, "  %-10s %-14s %12v (%4.1f%% of %v)\n",
			o.Op, top, o.Phase[top],
			100*o.Phase[top].Seconds()/o.Total.Seconds(), o.Total)
	}
}

// report is the machine-readable aggregate, written by -json in the
// same idiom as lfslint -json: a single indented object with stable
// field names.
type report struct {
	// Records is the number of trace records read.
	Records int `json:"records"`
	// Ops are the per-operation statistics in op-name order.
	Ops []opReport `json:"ops"`
	// IO is the disk busy-time decomposition in cause order.
	IO []ioReport `json:"io,omitempty"`
	// Clean is the cleaner summary, present when any activation was
	// recorded.
	Clean *cleanReport `json:"clean,omitempty"`
}

// opReport is one operation's row in the JSON report.
type opReport struct {
	Op     string `json:"op"`
	Count  int64  `json:"count"`
	Errors int64  `json:"errors,omitempty"`
	CPU    int64  `json:"cpu"`
	MeanNs int64  `json:"mean_ns"`
	MinNs  int64  `json:"min_ns"`
	MaxNs  int64  `json:"max_ns"`
	// Phases is the op's summed latency by phase in fixed kind order
	// (every kind present, zeros included), so consumers never depend
	// on map iteration order. UnattribNs is latency from spans
	// without phase lists (v1 traces).
	Phases     []phaseReport `json:"phases"`
	UnattribNs int64         `json:"unattrib_ns,omitempty"`
}

// phaseReport is one phase total in the JSON report.
type phaseReport struct {
	Kind  string `json:"kind"`
	DurNs int64  `json:"dur_ns"`
}

// ioReport is one I/O cause's row in the JSON report.
type ioReport struct {
	Cause    string `json:"cause"`
	Requests int64  `json:"requests"`
	Sectors  int64  `json:"sectors"`
	BusyNs   int64  `json:"busy_ns"`
}

// cleanReport is the cleaner summary in the JSON report.
type cleanReport struct {
	Activations    int64   `json:"activations"`
	BytesRead      int64   `json:"bytes_read"`
	BytesCopied    int64   `json:"bytes_copied"`
	BytesReclaimed int64   `json:"bytes_reclaimed"`
	WriteCost      float64 `json:"write_cost"`
}

// newReport assembles the JSON report from a decoded stream.
func newReport(st *obs.Stream) report {
	agg := st.Aggregates()
	r := report{Records: records(st), Ops: []opReport{}}
	for _, o := range agg.Ops {
		or := opReport{
			Op: o.Op, Count: o.Count, Errors: o.Errors, CPU: o.CPU,
			MeanNs: int64(o.Mean()), MinNs: int64(o.Min), MaxNs: int64(o.Max),
			Phases:     make([]phaseReport, 0, obs.NumPhaseKinds),
			UnattribNs: int64(o.Total - attributed(o)),
		}
		for k := obs.PhaseKind(0); k < obs.NumPhaseKinds; k++ {
			or.Phases = append(or.Phases, phaseReport{Kind: k.String(), DurNs: int64(o.Phase[k])})
		}
		r.Ops = append(r.Ops, or)
	}
	for _, io := range agg.IO {
		r.IO = append(r.IO, ioReport{Cause: io.Cause.String(),
			Requests: io.Requests, Sectors: io.Sectors, BusyNs: int64(io.Busy)})
	}
	if agg.Clean.Activations > 0 {
		r.Clean = &cleanReport{Activations: agg.Clean.Activations,
			BytesRead: agg.Clean.BytesRead, BytesCopied: agg.Clean.BytesCopied,
			BytesReclaimed: agg.Clean.BytesReclaimed, WriteCost: agg.Clean.WriteCost}
	}
	return r
}

// WriteJSON writes the report as indented JSON (the lfslint -json
// idiom).
func (r report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// quantileDur converts a latency-histogram quantile (seconds) to a
// duration for display.
func quantileDur(h obs.Histogram, p float64) sim.Duration {
	return sim.Duration(h.Quantile(p) * float64(sim.Second))
}
