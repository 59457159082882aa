package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/ffs"
	"lfs/internal/workload"
)

// Fig4Row is one bar of Figure 4: transfer rate in KB/s for one phase
// of the large-file test on one file system.
type Fig4Row struct {
	FS    string
	Phase string
	KBps  float64
	Raw   workload.Phase
}

// Fig4Opts scales the experiment (the paper uses a 100 MB file with
// 8 KB requests and ~15 MB of file cache).
type Fig4Opts struct {
	Capacity    int64
	FileSize    int64
	RequestSize int
}

// DefaultFig4Opts returns the paper's parameters.
func DefaultFig4Opts() Fig4Opts {
	return Fig4Opts{Capacity: DiskCapacity, FileSize: 100 << 20, RequestSize: 8192}
}

// Fig4 runs the §5.2 large-file test on both file systems: sequential
// write, sequential read, random write, random read, and sequential
// reread of one large file.
func Fig4(opts Fig4Opts) ([]Fig4Row, error) {
	var rows []Fig4Row
	// The cache keeps the paper's ratio, 15 MB to a 100 MB file, at
	// any scale; a larger one would absorb the whole file and the
	// random phases would degenerate.
	cacheBytes := opts.FileSize * 15 / 100
	for _, which := range []string{"LFS", "SunFFS"} {
		var sys *System
		var err error
		if which == "LFS" {
			cfg := core.DefaultConfig()
			cfg.CacheBlocks = int(cacheBytes) / cfg.BlockSize
			sys, err = NewLFS(opts.Capacity, cfg)
		} else {
			cfg := ffs.DefaultConfig()
			cfg.CacheBlocks = int(cacheBytes) / cfg.BlockSize
			sys, err = NewFFS(opts.Capacity, cfg)
		}
		if err != nil {
			return nil, err
		}
		w := workload.LargeFileOpts{
			FileSize: opts.FileSize, RequestSize: opts.RequestSize,
			Path: "/bigfile", Seed: 7,
		}
		res, err := workload.LargeFile(sys, w)
		if err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", which, err)
		}
		for _, p := range res.Phases() {
			rows = append(rows, Fig4Row{FS: which, Phase: p.Name, KBps: p.KBPerSec(), Raw: p})
		}
	}
	return rows, nil
}

// runFig4 is the table's fig4 row.
func runFig4() (Result, error) {
	rows, err := Fig4(DefaultFig4Opts())
	return tabular(rows, err, FormatFig4, CSVFig4)
}

// FormatFig4 renders the rows as the Figure 4 table.
func FormatFig4(rows []Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 - Large file I/O (KB/s)\n")
	fmt.Fprintf(&b, "%-12s %10s %10s\n", "phase", "LFS", "SunFFS")
	byPhase := map[string]map[string]float64{}
	var order []string
	for _, r := range rows {
		if byPhase[r.Phase] == nil {
			byPhase[r.Phase] = map[string]float64{}
			order = append(order, r.Phase)
		}
		byPhase[r.Phase][r.FS] = r.KBps
	}
	seen := map[string]bool{}
	var uniq []string
	for _, p := range order {
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	for _, p := range uniq {
		fmt.Fprintf(&b, "%-12s %10.0f %10.0f\n", p, byPhase[p]["LFS"], byPhase[p]["SunFFS"])
	}
	return b.String()
}
