package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/ffs"
	"lfs/internal/sim"
)

// RecoveryRow compares crash-recovery cost (§4.4): LFS mounts from a
// checkpoint (plus bounded roll-forward) while FFS must run a
// full-disk fsck scan whose cost grows with the volume, not with the
// damage.
type RecoveryRow struct {
	CapacityMB   int64
	FilesWritten int
	// LFSMountMs is the simulated time to remount LFS after a
	// crash, including roll-forward.
	LFSMountMs float64
	// LFSRollForwardUnits counts log units replayed.
	LFSRollForwardUnits int64
	// FFSFsckMs is the simulated time of the FFS full scan.
	FFSFsckMs float64
}

// RecoveryOpts parameterises the comparison.
type RecoveryOpts struct {
	// Capacities is the disk-size sweep in bytes.
	Capacities []int64
	// Files is how many 4 KB files to write before crashing.
	Files int
}

// DefaultRecoveryOpts sweeps disk sizes to show fsck's scaling.
func DefaultRecoveryOpts() RecoveryOpts {
	return RecoveryOpts{
		Capacities: []int64{32 << 20, 64 << 20, 128 << 20, 300 << 20},
		Files:      300,
	}
}

// Recovery crashes both file systems mid-workload and measures the
// simulated recovery time of each.
func Recovery(opts RecoveryOpts) ([]RecoveryRow, error) {
	var rows []RecoveryRow
	for _, capacity := range opts.Capacities {
		row := RecoveryRow{CapacityMB: capacity >> 20, FilesWritten: opts.Files}

		// LFS: workload, checkpoint midway, more work, crash,
		// remount (with roll-forward).
		lcfg := core.DefaultConfig()
		lsys, err := NewLFS(capacity, lcfg)
		if err != nil {
			return nil, err
		}
		lfs := lsys.System.(*core.FS)
		payload := make([]byte, 4096)
		for i := 0; i < opts.Files; i++ {
			p := fmt.Sprintf("/f%d", i)
			if err := lsys.Create(p); err != nil {
				return nil, err
			}
			if err := lsys.Write(p, 0, payload); err != nil {
				return nil, err
			}
			if i == opts.Files/2 {
				if err := lfs.Checkpoint(); err != nil {
					return nil, err
				}
			}
		}
		if err := lsys.Sync(); err != nil {
			return nil, err
		}
		lfs.Crash()
		before := lsys.Clock().Now()
		recovered, err := core.Mount(lsys.Disk, lcfg)
		if err != nil {
			return nil, fmt.Errorf("recovery: LFS remount: %w", err)
		}
		row.LFSMountMs = float64(lsys.Clock().Now().Sub(before)) / float64(sim.Millisecond)
		row.LFSRollForwardUnits = recovered.Stats().RollForwardUnits
		// Every file, those written after the checkpoint too, comes
		// back whole from the checkpoint and the rolled-forward tail.
		for i := 0; i < opts.Files; i++ {
			if info, err := recovered.Stat(fmt.Sprintf("/f%d", i)); err != nil || info.Size != int64(len(payload)) {
				return nil, fmt.Errorf("recovery: LFS /f%d after remount: %+v, %v", i, info, err)
			}
		}
		if err := audit(recovered, "recovery: LFS"); err != nil {
			return nil, err
		}

		// FFS: same workload, crash, fsck.
		fcfg := ffs.DefaultConfig()
		fsys, err := NewFFS(capacity, fcfg)
		if err != nil {
			return nil, err
		}
		bfs := fsys.System.(*ffs.FS)
		for i := 0; i < opts.Files; i++ {
			p := fmt.Sprintf("/f%d", i)
			if err := fsys.Create(p); err != nil {
				return nil, err
			}
			if err := fsys.Write(p, 0, payload); err != nil {
				return nil, err
			}
		}
		if err := fsys.Sync(); err != nil {
			return nil, err
		}
		bfs.Crash()
		before = fsys.Clock().Now()
		rep, err := ffs.Fsck(fsys.Disk, fcfg)
		if err != nil {
			return nil, fmt.Errorf("recovery: fsck: %w", err)
		}
		row.FFSFsckMs = float64(fsys.Clock().Now().Sub(before)) / float64(sim.Millisecond)
		if !rep.Ok() || rep.Files != opts.Files {
			return nil, fmt.Errorf("recovery: fsck: %d files of %d, problems %v", rep.Files, opts.Files, rep.Problems)
		}

		rows = append(rows, row)
	}
	return rows, nil
}

// runRecovery is the table's recovery row.
func runRecovery() (Result, error) {
	rows, err := Recovery(DefaultRecoveryOpts())
	return tabular(rows, err, FormatRecovery, CSVRecovery)
}

// FormatRecovery renders the comparison.
func FormatRecovery(rows []RecoveryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Crash recovery (4.4) - simulated recovery time\n")
	fmt.Fprintf(&b, "%-10s %14s %16s %14s\n", "disk (MB)", "LFS mount (ms)", "rolled-fwd units", "FFS fsck (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %14.1f %16d %14.1f\n",
			r.CapacityMB, r.LFSMountMs, r.LFSRollForwardUnits, r.FFSFsckMs)
	}
	return b.String()
}
