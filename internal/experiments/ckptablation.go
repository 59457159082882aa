package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/sim"
	"lfs/internal/workload"
)

// CkptRow measures the checkpoint-interval trade-off of §4.4.1: "The
// window of vulnerability can be controlled by setting the
// checkpointing interval" — shorter intervals lose less work at a
// crash but spend more time writing inode-map blocks and checkpoint
// regions.
type CkptRow struct {
	IntervalSec float64
	// Checkpoints taken during the workload.
	Checkpoints int64
	// ThroughputOpsSec is the office-trace operation rate.
	ThroughputOpsSec float64
	// LiveFiles counts files created inside one
	// checkpoint-interval-sized window before the crash; LostFiles
	// of them are unreachable after checkpoint-only recovery. The
	// ratio demonstrates §4.4.1's vulnerability window: everything
	// since the last checkpoint is at risk, and the interval sets
	// how much that can be.
	LiveFiles int
	LostFiles int
	// MountMs is the post-crash recovery time (roll-forward
	// disabled, so the interval alone bounds the loss).
	MountMs float64
}

// CkptOpts parameterises the sweep.
type CkptOpts struct {
	Capacity  int64
	Intervals []sim.Duration
	Office    workload.OfficeOpts
}

// DefaultCkptOpts sweeps intervals around the paper's 30 seconds.
func DefaultCkptOpts() CkptOpts {
	o := workload.DefaultOffice()
	o.Ops = 8000
	o.TargetFiles = 1500
	o.MeanLifetimeOps = 2000
	return CkptOpts{
		Capacity:  64 << 20,
		Intervals: []sim.Duration{5 * sim.Second, 15 * sim.Second, 30 * sim.Second, 60 * sim.Second, 120 * sim.Second},
		Office:    o,
	}
}

// CheckpointAblation runs the office trace under each checkpoint
// interval, crashes at the end (the worst point: just before the next
// checkpoint would fire), and measures how much of the trace's file
// population the checkpoint-only recovery loses — the interval-bounded
// vulnerability window of §4.4.1.
func CheckpointAblation(opts CkptOpts) ([]CkptRow, error) {
	var rows []CkptRow
	for _, interval := range opts.Intervals {
		cfg := core.DefaultConfig()
		cfg.CheckpointInterval = interval
		cfg.RollForward = false // isolate the checkpoint window
		sys, err := NewLFS(opts.Capacity, cfg)
		if err != nil {
			return nil, err
		}
		lfs := sys.System.(*core.FS)
		office := opts.Office
		office.Seed = 31 // same trace for every interval
		res, err := workload.Office(sys, office)
		if err != nil {
			return nil, fmt.Errorf("ckpt ablation %v: %w", interval, err)
		}
		// Measure the vulnerability window deterministically: take
		// a checkpoint, run exactly one interval's worth of further
		// work, then crash. Everything created inside the window is
		// at risk; with roll-forward off it is all lost — the
		// quantity the interval knob controls.
		if err := lfs.Checkpoint(); err != nil {
			return nil, err
		}
		ckptAt := sys.Clock().Now()
		var windowFiles []string
		payload := make([]byte, 2048)
		// Stop just short of the interval so the periodic trigger
		// does not checkpoint the window we are about to lose, and
		// pace the work with think time (one save every half second
		// of simulated time, an editing user).
		window := interval - interval/20
		for i := 0; sys.Clock().Now().Sub(ckptAt) < window; i++ {
			p := fmt.Sprintf("/window%05d", i)
			if err := sys.Create(p); err != nil {
				return nil, err
			}
			if err := sys.Write(p, 0, payload); err != nil {
				return nil, err
			}
			windowFiles = append(windowFiles, p)
			sys.Clock().Advance(500 * sim.Millisecond)
		}
		st := lfs.Stats()
		lfs.Crash()
		before := sys.Clock().Now()
		recovered, err := core.Mount(sys.Disk, cfg)
		if err != nil {
			return nil, fmt.Errorf("ckpt ablation %v: remount: %w", interval, err)
		}
		mountMs := float64(sys.Clock().Now().Sub(before)) / float64(sim.Millisecond)
		lost := 0
		for _, p := range windowFiles {
			if _, err := recovered.Stat(p); err != nil {
				lost++
			}
		}
		rows = append(rows, CkptRow{
			IntervalSec:      interval.Seconds(),
			Checkpoints:      st.Checkpoints,
			ThroughputOpsSec: res.Elapsed.OpsPerSec(),
			LiveFiles:        len(windowFiles),
			LostFiles:        lost,
			MountMs:          mountMs,
		})
		if err := audit(recovered, fmt.Sprintf("ckpt ablation %v", interval)); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// runCkpt is the table's ablation-ckpt row.
func runCkpt() (Result, error) {
	rows, err := CheckpointAblation(DefaultCkptOpts())
	return tabular(rows, err, FormatCkpt, CSVCkpt)
}

// FormatCkpt renders the sweep.
func FormatCkpt(rows []CkptRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation - checkpoint interval (4.4.1's vulnerability window)\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %16s %10s\n", "interval (s)", "checkpoints", "trace ops/s", "files lost", "mount ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12.0f %12d %12.1f %10d/%-5d %10.1f\n",
			r.IntervalSec, r.Checkpoints, r.ThroughputOpsSec, r.LostFiles, r.LiveFiles, r.MountMs)
	}
	return b.String()
}
