package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/workload"
)

// --- segment size ablation ---------------------------------------------

// SegSizeRow measures how segment size affects log write bandwidth on
// a fragmented disk. §4.3: "What really matters is that the log is
// written in large enough pieces to support I/O at near-maximum disk
// bandwidth ... sizing segments so that the disk seek at the start of
// a segment write is amortized across a long data transfer time." On
// an aged disk whose clean segments alternate with live ones, every
// segment transition pays a seek and rotational delay; small segments
// pay it per few hundred kilobytes, large segments per megabyte.
type SegSizeRow struct {
	SegmentKB int
	// WriteKBps is the effective log write bandwidth for a large
	// sync-bounded write on the fragmented volume.
	WriteKBps float64
	// CreatePS is small-file creation throughput on the same
	// volume.
	CreatePS float64
}

// SegSizeAblation sweeps 128 KB to 4 MB around the paper's 1 MB. It
// ages each 64 MB volume so that clean segments alternate with live
// ones (file A and file B written in alternating segment-sized chunks,
// then A deleted and its dead segments reclaimed), then measures the
// effective bandwidth of a 12 MB write that must hop across the
// scattered clean segments, and 2000 small-file creates after it.
func SegSizeAblation() ([]SegSizeRow, error) {
	const (
		capacity int64 = 64 << 20
		files          = 2000
		writeMB        = 12
	)
	var rows []SegSizeRow
	for _, ss := range []int{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20} {
		cfg := core.DefaultConfig()
		cfg.SegmentSize = ss
		sys, err := NewLFS(capacity, cfg)
		if err != nil {
			return nil, fmt.Errorf("segsize %d: %w", ss, err)
		}
		lfs := sys.System.(*core.FS)

		// Age the volume: alternate segment-sized chunks of two
		// files so segment ownership alternates, then delete one
		// file and reclaim its (fully dead) segments.
		if err := sys.Create("/a"); err != nil {
			return nil, err
		}
		if err := sys.Create("/b"); err != nil {
			return nil, err
		}
		chunk := make([]byte, ss*3/4) // leaves room for metadata in the same segment
		// Fill ~60% of the disk alternately.
		total := capacity * 6 / 10
		var offA, offB int64
		for written := int64(0); written < total; written += 2 * int64(len(chunk)) {
			if err := sys.Write("/a", offA, chunk); err != nil {
				return nil, err
			}
			if err := sys.Sync(); err != nil {
				return nil, err
			}
			offA += int64(len(chunk))
			if err := sys.Write("/b", offB, chunk); err != nil {
				return nil, err
			}
			if err := sys.Sync(); err != nil {
				return nil, err
			}
			offB += int64(len(chunk))
		}
		if err := sys.Remove("/a"); err != nil {
			return nil, err
		}
		if err := sys.Sync(); err != nil {
			return nil, err
		}
		if _, err := lfs.CleanUntil(int(capacity) / ss); err != nil {
			return nil, err
		}

		// Bandwidth probe: a large write through the scattered
		// clean segments.
		if err := sys.Create("/probe"); err != nil {
			return nil, err
		}
		probe := make([]byte, 64<<10)
		start := sys.Clock().Now()
		for off := int64(0); off < writeMB<<20; off += int64(len(probe)) {
			if err := sys.Write("/probe", off, probe); err != nil {
				return nil, err
			}
		}
		if err := sys.Sync(); err != nil {
			return nil, err
		}
		elapsed := sys.Clock().Now().Sub(start)
		row := SegSizeRow{
			SegmentKB: ss >> 10,
			WriteKBps: float64(writeMB<<20) / 1024 / elapsed.Seconds(),
		}

		// Small-file phase on the same aged volume.
		res, err := workload.SmallFile(sys, workload.SmallFileOpts{
			NumFiles: files, FileSize: 1024, Dir: "/s", Seed: 42,
		})
		if err != nil {
			return nil, fmt.Errorf("segsize %d small files: %w", ss, err)
		}
		row.CreatePS = res.Create.OpsPerSec()
		rows = append(rows, row)
		if err := audit(lfs, fmt.Sprintf("segsize %d", ss)); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// runSegSize is the table's ablation-segsize row.
func runSegSize() (Result, error) {
	rows, err := SegSizeAblation()
	return tabular(rows, err, FormatSegSize, CSVSegSize)
}

// FormatSegSize renders the sweep.
func FormatSegSize(rows []SegSizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation - segment size vs log bandwidth on a fragmented disk\n")
	fmt.Fprintf(&b, "%-12s %14s %12s\n", "segment", "write KB/s", "create/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %14.0f %12.1f\n", fmt.Sprintf("%dKB", r.SegmentKB), r.WriteKBps, r.CreatePS)
	}
	return b.String()
}
