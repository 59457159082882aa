package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/ffs"
	"lfs/internal/workload"
)

// Fig3Row is one bar group of Figure 3: files per second for the
// create, read, and delete phases of the small-file test.
type Fig3Row struct {
	FS        string
	FileSize  int
	NumFiles  int
	CreatePS  float64
	ReadPS    float64
	DeletePS  float64
	RawCreate workload.Phase
	RawRead   workload.Phase
	RawDelete workload.Phase
}

// Fig3Opts scales the experiment (the full paper size is 10000 1 KB
// files; tests use smaller counts for speed).
type Fig3Opts struct {
	Capacity int64
	Files1K  int
	Files10K int
}

// DefaultFig3Opts returns the paper's parameters.
func DefaultFig3Opts() Fig3Opts {
	return Fig3Opts{
		Capacity: DiskCapacity,
		Files1K:  10000,
		Files10K: 1000,
	}
}

// Fig3 runs the §5.1 small-file test (create 10 MB of small files,
// flush the cache, read them in order, delete them) for 1 KB and
// 10 KB files on both file systems.
func Fig3(opts Fig3Opts) ([]Fig3Row, error) {
	var rows []Fig3Row
	cases := []struct {
		size  int
		count int
	}{
		{1024, opts.Files1K},
		{10240, opts.Files10K},
	}
	for _, c := range cases {
		for _, which := range []string{"LFS", "SunFFS"} {
			var sys *System
			var err error
			if which == "LFS" {
				sys, err = NewLFS(opts.Capacity, core.DefaultConfig())
			} else {
				sys, err = NewFFS(opts.Capacity, ffs.DefaultConfig())
			}
			if err != nil {
				return nil, err
			}
			w := workload.SmallFileOpts{
				NumFiles: c.count, FileSize: c.size,
				Dir: "/small", Seed: 42,
			}
			res, err := workload.SmallFile(sys, w)
			if err != nil {
				return nil, fmt.Errorf("fig3 %s %dB: %w", which, c.size, err)
			}
			rows = append(rows, Fig3Row{
				FS: which, FileSize: c.size, NumFiles: c.count,
				CreatePS:  res.Create.OpsPerSec(),
				ReadPS:    res.Read.OpsPerSec(),
				DeletePS:  res.Delete.OpsPerSec(),
				RawCreate: res.Create, RawRead: res.Read, RawDelete: res.Delete,
			})
		}
	}
	return rows, nil
}

// runFig3 is the table's fig3 row.
func runFig3() (Result, error) {
	rows, err := Fig3(DefaultFig3Opts())
	return tabular(rows, err, FormatFig3, CSVFig3)
}

// FormatFig3 renders the rows as the Figure 3 table.
func FormatFig3(rows []Fig3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 - Small file I/O (files per second)\n")
	fmt.Fprintf(&b, "%-8s %-8s %8s %10s %10s %10s\n", "fs", "size", "files", "create/s", "read/s", "delete/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-8s %8d %10.1f %10.1f %10.1f\n",
			r.FS, fmt.Sprintf("%dK", r.FileSize/1024), r.NumFiles, r.CreatePS, r.ReadPS, r.DeletePS)
	}
	return b.String()
}
