package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/ffs"
	"lfs/internal/obs"
)

// Fig1Result holds the traces behind Figures 1 and 2: the disk
// accesses caused by creating two single-block files in different
// directories under each file system.
type Fig1Result struct {
	FFSEvents []disk.Event
	LFSEvents []disk.Event
	FFS       TraceSummary
	LFS       TraceSummary
}

// TraceSummary aggregates a disk trace into the numbers the paper
// quotes for Figure 1 ("8 random writes of which half are
// synchronous").
type TraceSummary struct {
	Reads        int
	Writes       int
	SyncWrites   int
	SeqWrites    int // writes that continued the previous transfer
	BytesRead    int64
	BytesWritten int64
	Seeks        int
}

// summarizeTrace aggregates the events.
func summarizeTrace(events []disk.Event) TraceSummary {
	var s TraceSummary
	for _, ev := range events {
		if !ev.Sequential {
			s.Seeks++
		}
		n := int64(ev.Sectors) * disk.SectorSize
		if ev.Kind == disk.OpRead {
			s.Reads++
			s.BytesRead += n
			continue
		}
		s.Writes++
		s.BytesWritten += n
		if ev.Sync {
			s.SyncWrites++
		}
		if ev.Sequential {
			s.SeqWrites++
		}
	}
	return s
}

// String formats the summary on one line.
func (s TraceSummary) String() string {
	return fmt.Sprintf("writes=%d (sync=%d, sequential=%d) reads=%d seeks=%d written=%dB",
		s.Writes, s.SyncWrites, s.SeqWrites, s.Reads, s.Seeks, s.BytesWritten)
}

// formatTraceTable renders the trace as an aligned table, one row per
// disk request — the paper's Figure 1 / Figure 2 pictures as text.
func formatTraceTable(events []disk.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-5s %10s %8s %5s %5s %s\n",
		"time", "op", "sector", "bytes", "sync", "seek", "label")
	for _, ev := range events {
		sync, seek := "-", "-"
		if ev.Sync {
			sync = "yes"
		}
		if !ev.Sequential {
			seek = "yes"
		}
		fmt.Fprintf(&b, "%-12v %-5s %10d %8d %5s %5s %s\n",
			ev.Time, ev.Kind, ev.Sector, ev.Sectors*disk.SectorSize, sync, seek, ev.Label)
	}
	return b.String()
}

// Fig1 reproduces the Figure 1 / Figure 2 pair. The workload is the
// paper's:
//
//	fd = creat("dir1/file1", 0); write(fd, buffer, blockSize); close(fd);
//	fd = creat("dir2/file2", 0); write(fd, buffer, blockSize); close(fd);
//
// followed by the delayed write-back (a sync). Figure 1 shows FFS
// issuing small random writes, half of them synchronous; Figure 2
// shows LFS issuing a single large sequential asynchronous transfer.
func Fig1(capacity int64) (*Fig1Result, error) {
	res := &Fig1Result{}
	for _, which := range []string{"ffs", "lfs"} {
		var sys *System
		var err error
		if which == "ffs" {
			sys, err = NewFFS(capacity, ffs.DefaultConfig())
		} else {
			sys, err = NewLFS(capacity, core.DefaultConfig())
		}
		if err != nil {
			return nil, err
		}
		if err := sys.Mkdir("/dir1"); err != nil {
			return nil, err
		}
		if err := sys.Mkdir("/dir2"); err != nil {
			return nil, err
		}
		if err := sys.Sync(); err != nil {
			return nil, err
		}
		rec := obs.NewRecorder()
		sys.Disk.SetTracer(rec)
		blockSize := 4096
		buf := make([]byte, blockSize)
		for i, p := range []string{"/dir1/file1", "/dir2/file2"} {
			buf[0] = byte(i)
			if err := sys.Create(p); err != nil {
				return nil, err
			}
			if err := sys.Write(p, 0, buf); err != nil {
				return nil, err
			}
		}
		// The delayed write-back.
		if err := sys.Sync(); err != nil {
			return nil, err
		}
		sys.Disk.SetTracer(nil)
		if which == "ffs" {
			res.FFSEvents = rec.Events()
			res.FFS = summarizeTrace(res.FFSEvents)
		} else {
			res.LFSEvents = rec.Events()
			res.LFS = summarizeTrace(res.LFSEvents)
		}
	}
	return res, nil
}

// runFig1 is the table's fig1 row. A 64 MB volume is plenty: the traces
// are of two file creations.
func runFig1() (Result, error) {
	res, err := Fig1(64 << 20)
	if err != nil {
		return Result{}, err
	}
	return Result{Text: res.Format()}, nil
}

// Format renders both traces and their summaries.
func (r *Fig1Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 - BSD FFS file creation (two 1-block files in two directories)\n")
	b.WriteString(formatTraceTable(r.FFSEvents))
	fmt.Fprintf(&b, "summary: %v\n\n", r.FFS)
	fmt.Fprintf(&b, "Figure 2 - LFS file creation (same workload)\n")
	b.WriteString(formatTraceTable(r.LFSEvents))
	fmt.Fprintf(&b, "summary: %v\n", r.LFS)
	return b.String()
}
