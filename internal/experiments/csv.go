package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
)

// Every experiment can emit machine-readable CSV alongside its text
// table, for plotting. Each CSV function writes a header row followed
// by one record per measurement.

// writeCSV writes rows with a uniform error path.
func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
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
func CSVFig3(w io.Writer, rows []Fig3Row) error {
	var recs [][]string
	for _, r := range rows {
		recs = append(recs, []string{r.FS, i(int64(r.FileSize)), i(int64(r.NumFiles)),
			f(r.CreatePS), f(r.ReadPS), f(r.DeletePS)})
	}
	return writeCSV(w, []string{"fs", "file_size", "files", "create_per_s", "read_per_s", "delete_per_s"}, recs)
}

// CSVFig4 writes Figure 4 rows.
func CSVFig4(w io.Writer, rows []Fig4Row) error {
	var recs [][]string
	for _, r := range rows {
		recs = append(recs, []string{r.FS, r.Phase, f(r.KBps)})
	}
	return writeCSV(w, []string{"fs", "phase", "kb_per_s"}, recs)
}

// CSVFig5 writes Figure 5 rows.
func CSVFig5(w io.Writer, rows []Fig5Row) error {
	var recs [][]string
	for _, r := range rows {
		recs = append(recs, []string{f(r.Utilization), f(r.RateKBps),
			i(int64(r.SegmentsCleaned)), i(int64(r.LiveCopied)), i(int64(r.BlocksExamined))})
	}
	return writeCSV(w, []string{"utilization", "clean_kb_per_s", "segments", "live_copied", "examined"}, recs)
}

// CSVScaling writes §3.1 rows.
func CSVScaling(w io.Writer, rows []ScalingRow) error {
	var recs [][]string
	for _, r := range rows {
		recs = append(recs, []string{r.FS, f(r.MIPS), f(r.PerFileMs)})
	}
	return writeCSV(w, []string{"fs", "mips", "ms_per_file"}, recs)
}

// CSVRecovery writes §4.4 rows.
func CSVRecovery(w io.Writer, rows []RecoveryRow) error {
	var recs [][]string
	for _, r := range rows {
		recs = append(recs, []string{i(r.CapacityMB), f(r.LFSMountMs),
			i(r.LFSRollForwardUnits), f(r.FFSFsckMs)})
	}
	return writeCSV(w, []string{"disk_mb", "lfs_mount_ms", "rolled_forward_units", "ffs_fsck_ms"}, recs)
}

// CSVSegSize writes the segment-size ablation.
func CSVSegSize(w io.Writer, rows []SegSizeRow) error {
	var recs [][]string
	for _, r := range rows {
		recs = append(recs, []string{i(int64(r.SegmentKB)), f(r.WriteKBps), f(r.CreatePS)})
	}
	return writeCSV(w, []string{"segment_kb", "write_kb_per_s", "create_per_s"}, recs)
}

// CSVBlockSize writes the block-size ablation.
func CSVBlockSize(w io.Writer, rows []BlockSizeRow) error {
	var recs [][]string
	for _, r := range rows {
		recs = append(recs, []string{i(int64(r.BlockSize)), f(r.CreatePS), f(r.ReadPS), f(r.StorageOverhead)})
	}
	return writeCSV(w, []string{"block_size", "create_per_s", "read_per_s", "live_bytes_per_user_byte"}, recs)
}

// CSVCkpt writes the checkpoint-interval ablation.
func CSVCkpt(w io.Writer, rows []CkptRow) error {
	var recs [][]string
	for _, r := range rows {
		recs = append(recs, []string{f(r.IntervalSec), i(r.Checkpoints), f(r.ThroughputOpsSec),
			i(int64(r.LostFiles)), i(int64(r.LiveFiles)), f(r.MountMs)})
	}
	return writeCSV(w, []string{"interval_s", "checkpoints", "trace_ops_per_s", "files_lost", "window_files", "mount_ms"}, recs)
}

// CSVUtilization writes the utilization-distribution histograms, ten
// bins per policy under one header.
func CSVUtilization(w io.Writer, byPolicy []*UtilizationResult) error {
	var recs [][]string
	for _, r := range byPolicy {
		for bin, n := range r.Histogram {
			recs = append(recs, []string{r.Policy.String(), fmt.Sprintf("%d", bin*10), fmt.Sprintf("%d", (bin+1)*10), i(int64(n))})
		}
	}
	return writeCSV(w, []string{"policy", "bin_low_pct", "bin_high_pct", "segments"}, recs)
}

// CSVCleaning writes the write-cost-vs-utilization curve.
func CSVCleaning(w io.Writer, rows []CleaningRow) error {
	var recs [][]string
	for _, r := range rows {
		recs = append(recs, []string{r.Arm, f(r.TargetUtil), f(r.DiskUtil),
			f(r.WriteCost), f(r.WriteAmp), i(r.SegmentsCleaned), i(r.LiveCopied)})
	}
	return writeCSV(w, []string{"arm", "target_util", "disk_util", "write_cost",
		"write_amplification", "segments_cleaned", "live_copied"}, recs)
}

// CSVConcurrency writes the multi-client throughput sweep.
func CSVConcurrency(w io.Writer, rows []ConcurrencyRow) error {
	var recs [][]string
	for _, r := range rows {
		recs = append(recs, []string{i(int64(r.Clients)),
			f(r.LFSOpsPerSec), f(r.LFSNoGCOpsPerSec), f(r.FFSOpsPerSec),
			i(r.GroupCommits), i(r.Piggybacked),
			f(r.LFSWritesPerOp), f(r.FFSWritesPerOp),
			f(ms(r.LFSP50)), f(ms(r.LFSP95)), f(ms(r.LFSP99))})
	}
	return writeCSV(w, []string{"clients", "lfs_ops_per_s", "lfs_nogc_ops_per_s",
		"ffs_ops_per_s", "group_commits", "piggybacked",
		"lfs_writes_per_op", "ffs_writes_per_op",
		"lfs_p50_ms", "lfs_p95_ms", "lfs_p99_ms"}, recs)
}

// CSVSharding writes the multi-log scale-out sweep.
func CSVSharding(w io.Writer, res *ShardingResult) error {
	var recs [][]string
	for _, r := range res.Rows {
		recs = append(recs, []string{i(int64(r.Shards)), i(int64(r.Clients)),
			f(r.OpsPerSec), f(r.Speedup), f(r.WritesPerOp),
			f(ms(r.P50)), f(ms(r.P95)), f(ms(r.P99))})
	}
	return writeCSV(w, []string{"shards", "clients", "ops_per_s", "speedup",
		"writes_per_op", "p50_ms", "p95_ms", "p99_ms"}, recs)
}
