package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"lfs/internal/obs"
)

// Experiment is one row of Table: everything cmd/lfsbench, scripts/ci.sh,
// the root benchmarks and the baselines test know about an experiment.
type Experiment struct {
	Name  string
	About string
	// Bench, when non-empty, names the committed BENCH_<Bench>.json
	// baseline that scripts/ci.sh holds Result.Bench to.
	Bench string
	// Run builds the experiment's default (paper-scale) options, runs
	// it and formats the outcome. A verdict the experiment enforces on
	// itself — lost data, a dirty fsck, a missed floor — is the error.
	Run func() (Result, error)
}

// Result is what one run of an experiment hands back. Text is always
// set; the rest are nil where the experiment has no CSV form, no
// committed baseline, or no trace to export.
type Result struct {
	Text  string
	CSV   func(io.Writer) error
	Bench map[string]any
	Trace *obs.Recorder
}

// Table is every experiment, in the order "all" runs them. Adding an
// experiment is one row here plus the file that holds its run
// function; nothing else lists experiments.
var Table = []Experiment{
	{"fig1", "Figures 1-2: creation disk traces", "", runFig1},
	{"fig3", "Figure 3: small-file I/O", "", runFig3},
	{"fig4", "Figure 4: large-file I/O", "", runFig4},
	{"fig5", "Figure 5: cleaning rate vs utilization", "", runFig5},
	{"scaling", "§3.1: CPU scaling of create/delete", "", runScaling},
	{"recovery", "§4.4: crash recovery time", "", runRecovery},
	{"ablation-segsize", "segment size sweep", "", runSegSize},
	{"ablation-ckpt", "checkpoint interval: overhead vs vulnerability window", "", runCkpt},
	{"ablation-blocksize", "block size on the small-file workload", "", runBlockSize},
	{"utilization", "segment utilization distribution under an office trace", "", runUtilization},
	{"cleaning-curve", "write cost vs utilization: greedy, cost-benefit, +segregation; u=0.80 is the gated headline", "cleaning", runCleaningCurve},
	{"trace", "instrumented small-file + cleaning smoke (-trace exports the JSONL)", "trace", runTraceSmoke},
	{"concurrency", "multi-client throughput: LFS group commit on/off vs FFS", "concurrency", runConcurrency},
	{"critpath", "fsync latency by phase across client counts; fails unless every span's phases sum to its latency", "critpath", runCritPath},
	{"sharding", "multi-log scale-out: ops/s vs shard count, a one-shard power cut, and a same-seed rerun that must be byte-identical", "sharding", runSharding},
	{"metrics", "metrics-plane smoke: final sample equals the aggregates", "metrics", runMetricsSmoke},
	{"crashsweep", "crash-point sweep: replay must execute 5x the snapshot strategy's ops per point", "crashsweep", runCrashSweep},
}

// tabular is the Result of an experiment that is just rows: a text
// table and the same rows as CSV.
func tabular[R any](rows R, err error, format func(R) string, csv func(io.Writer, R) error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return Result{
		Text: format(rows),
		CSV:  func(w io.Writer) error { return csv(w, rows) },
	}, nil
}

// WriteBench writes a Result.Bench summary in the one form the
// committed baselines have: every object's keys sorted, whatever Go
// type produced it, and every number's literal digits preserved, so the
// same data always gives the same bytes: scripts/ci.sh holds each
// summary to its committed file with cmp. The summary must carry its
// experiment's name under "experiment".
func WriteBench(w io.Writer, summary map[string]any) error {
	if name, _ := summary["experiment"].(string); name == "" {
		return fmt.Errorf("bench summary has no experiment name")
	}
	// Round-trip through JSON so that structs become maps (marshalled
	// with sorted keys, not in field order) and numbers json.Numbers.
	raw, err := json.Marshal(summary)
	if err != nil {
		return fmt.Errorf("bench summary: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var canon any
	if err := dec.Decode(&canon); err != nil {
		return fmt.Errorf("bench summary: %w", err)
	}
	buf, err := json.MarshalIndent(canon, "", "  ")
	if err != nil {
		return fmt.Errorf("bench summary: %w", err)
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}
