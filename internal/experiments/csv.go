package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
)

// Every experiment can emit machine-readable CSV alongside its text
// table, for plotting: a header row, then one record per measurement.

// rowCSV returns the CSV writer of a table of R: the comma-separated
// header, then rec of each row.
func rowCSV[R any](header string, rec func(R) []string) func(io.Writer, []R) error {
	return func(w io.Writer, rows []R) error {
		cw := csv.NewWriter(w)
		if err := cw.Write(strings.Split(header, ",")); err != nil {
			return err
		}
		for _, r := range rows {
			if err := cw.Write(rec(r)); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
}

// f formats a float for CSV. Degenerate ratios (0/0 from a run too
// small to activate some phase) become 0 so downstream plotting never
// sees NaN or Inf.
func f(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return fmt.Sprintf("%.3f", v)
}
func i(v int64) string { return fmt.Sprintf("%d", v) }

// CSVFig3 writes Figure 3 rows.
var CSVFig3 = rowCSV("fs,file_size,files,create_per_s,read_per_s,delete_per_s", func(r Fig3Row) []string {
	return []string{r.FS, i(int64(r.FileSize)), i(int64(r.NumFiles)), f(r.CreatePS), f(r.ReadPS), f(r.DeletePS)}
})

// CSVFig4 writes Figure 4 rows.
var CSVFig4 = rowCSV("fs,phase,kb_per_s", func(r Fig4Row) []string {
	return []string{r.FS, r.Phase, f(r.KBps)}
})

// CSVFig5 writes Figure 5 rows.
var CSVFig5 = rowCSV("utilization,clean_kb_per_s,segments,live_copied,examined", func(r Fig5Row) []string {
	return []string{f(r.Utilization), f(r.RateKBps), i(int64(r.SegmentsCleaned)), i(int64(r.LiveCopied)), i(int64(r.BlocksExamined))}
})

// CSVScaling writes §3.1 rows.
var CSVScaling = rowCSV("fs,mips,ms_per_file", func(r ScalingRow) []string {
	return []string{r.FS, f(r.MIPS), f(r.PerFileMs)}
})

// CSVRecovery writes §4.4 rows.
var CSVRecovery = rowCSV("disk_mb,lfs_mount_ms,rolled_forward_units,ffs_fsck_ms", func(r RecoveryRow) []string {
	return []string{i(r.CapacityMB), f(r.LFSMountMs), i(r.LFSRollForwardUnits), f(r.FFSFsckMs)}
})

// CSVSegSize writes the segment-size ablation.
var CSVSegSize = rowCSV("segment_kb,write_kb_per_s,create_per_s", func(r SegSizeRow) []string {
	return []string{i(int64(r.SegmentKB)), f(r.WriteKBps), f(r.CreatePS)}
})

// CSVBlockSize writes the block-size ablation.
var CSVBlockSize = rowCSV("block_size,create_per_s,read_per_s,live_bytes_per_user_byte", func(r BlockSizeRow) []string {
	return []string{i(int64(r.BlockSize)), f(r.CreatePS), f(r.ReadPS), f(r.StorageOverhead)}
})

// CSVCkpt writes the checkpoint-interval ablation.
var CSVCkpt = rowCSV("interval_s,checkpoints,trace_ops_per_s,files_lost,window_files,mount_ms", func(r CkptRow) []string {
	return []string{f(r.IntervalSec), i(r.Checkpoints), f(r.ThroughputOpsSec), i(int64(r.LostFiles)), i(int64(r.LiveFiles)), f(r.MountMs)}
})

// CSVUtilization writes the utilization-distribution histograms, ten
// bins per policy under one header.
func CSVUtilization(w io.Writer, byPolicy []*UtilizationResult) error {
	type bin struct {
		policy string
		low, n int
	}
	var bins []bin
	for _, r := range byPolicy {
		for b, n := range r.Histogram {
			bins = append(bins, bin{r.Policy.String(), b * 10, n})
		}
	}
	return rowCSV("policy,bin_low_pct,bin_high_pct,segments", func(b bin) []string {
		return []string{b.policy, i(int64(b.low)), i(int64(b.low + 10)), i(int64(b.n))}
	})(w, bins)
}

// CSVCleaning writes the write-cost-vs-utilization curve.
var CSVCleaning = rowCSV("arm,target_util,disk_util,write_cost,write_amplification,segments_cleaned,live_copied", func(r CleaningRow) []string {
	return []string{r.Arm, f(r.TargetUtil), f(r.DiskUtil), f(r.WriteCost), f(r.WriteAmp), i(r.SegmentsCleaned), i(r.LiveCopied)}
})

// CSVConcurrency writes the multi-client throughput sweep.
var CSVConcurrency = rowCSV("clients,lfs_ops_per_s,lfs_nogc_ops_per_s,ffs_ops_per_s,group_commits,piggybacked,"+
	"lfs_writes_per_op,ffs_writes_per_op,lfs_p50_ms,lfs_p95_ms,lfs_p99_ms", func(r ConcurrencyRow) []string {
	return []string{i(int64(r.Clients)), f(r.LFSOpsPerSec), f(r.LFSNoGCOpsPerSec), f(r.FFSOpsPerSec),
		i(r.GroupCommits), i(r.Piggybacked), f(r.LFSWritesPerOp), f(r.FFSWritesPerOp),
		f(ms(r.LFSP50)), f(ms(r.LFSP95)), f(ms(r.LFSP99))}
})

// CSVSharding writes the multi-log scale-out sweep.
func CSVSharding(w io.Writer, res *ShardingResult) error {
	return rowCSV("shards,clients,ops_per_s,speedup,writes_per_op,p50_ms,p95_ms,p99_ms", func(r ShardingRow) []string {
		return []string{i(int64(r.Shards)), i(int64(r.Clients)), f(r.OpsPerSec), f(r.Speedup), f(r.WritesPerOp),
			f(ms(r.P50)), f(ms(r.P95)), f(ms(r.P99))}
	})(w, res.Rows)
}
