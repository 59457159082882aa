package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/ffs"
	"lfs/internal/sim"
)

// ScalingRow is one point of the §3.1 experiment: the time to create
// and delete an empty file as a function of CPU speed. The paper's
// observation: on the BSD FFS, an order-of-magnitude CPU upgrade (a
// 0.9-MIPS MicroVAX II to a 14-MIPS DECstation 3100) improves
// create+delete by only ~20% because the synchronous disk writes
// dominate; LFS, with no synchronous writes, scales with the CPU.
type ScalingRow struct {
	FS        string
	MIPS      float64
	PerFileMs float64
}

// ScalingOpts parameterises the sweep.
type ScalingOpts struct {
	Capacity int64
	MIPS     []float64
	// Files is how many create+delete pairs to average over.
	Files int
}

// DefaultScalingOpts sweeps the paper's two machines plus points
// between and beyond.
func DefaultScalingOpts() ScalingOpts {
	return ScalingOpts{
		Capacity: 64 << 20,
		MIPS:     []float64{0.9, 2, 5, 10, 14, 28},
		Files:    200,
	}
}

// Scaling measures create+delete latency per empty file across CPU
// speeds for both file systems.
func Scaling(opts ScalingOpts) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, mips := range opts.MIPS {
		for _, which := range []string{"LFS", "SunFFS"} {
			var sys *System
			var err error
			if which == "LFS" {
				cfg := core.DefaultConfig()
				cfg.MIPS = mips
				sys, err = NewLFS(opts.Capacity, cfg)
			} else {
				cfg := ffs.DefaultConfig()
				cfg.MIPS = mips
				sys, err = NewFFS(opts.Capacity, cfg)
			}
			if err != nil {
				return nil, err
			}
			start := sys.Clock().Now()
			for i := 0; i < opts.Files; i++ {
				p := fmt.Sprintf("/f%d", i)
				if err := sys.Create(p); err != nil {
					return nil, err
				}
				if err := sys.Remove(p); err != nil {
					return nil, err
				}
			}
			if err := sys.Sync(); err != nil {
				return nil, err
			}
			elapsed := sys.Clock().Now().Sub(start)
			rows = append(rows, ScalingRow{
				FS:        which,
				MIPS:      mips,
				PerFileMs: float64(elapsed) / float64(sim.Millisecond) / float64(opts.Files),
			})
		}
	}
	return rows, nil
}

// runScaling is the table's scaling row.
func runScaling() (Result, error) {
	rows, err := Scaling(DefaultScalingOpts())
	return tabular(rows, err, FormatScaling, CSVScaling)
}

// FormatScaling renders the sweep.
func FormatScaling(rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPU scaling (3.1) - create+delete one empty file (ms)\n")
	fmt.Fprintf(&b, "%-8s %10s %14s\n", "fs", "MIPS", "ms per file")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %10.1f %14.2f\n", r.FS, r.MIPS, r.PerFileMs)
	}
	return b.String()
}
