package experiments

import (
	"strings"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/sim"
)

// The tests in this file assert the *shapes* of the paper's results:
// who wins, by roughly what factor, and where the crossovers fall.
// Absolute numbers depend on the simulated WREN IV model and the CPU
// cost table, but the qualitative claims must hold.

// scaled-down parameters keep test runtime reasonable while preserving
// shapes (ratios are insensitive to the file counts at these scales).

func TestFig1Shape(t *testing.T) {
	res, err := Fig1(32 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "The total disk I/O in this example includes 8 random
	// writes of which half are synchronous."
	if res.FFS.SyncWrites < 4 {
		t.Errorf("FFS creat of two files did %d sync writes, want >= 4", res.FFS.SyncWrites)
	}
	if res.FFS.Writes < 6 {
		t.Errorf("FFS creat of two files did %d writes, want >= 6 (paper: 8)", res.FFS.Writes)
	}
	// Paper: "LFS performs the 8 writes in one large transfer...
	// all writes are sequential and none are synchronous."
	if res.LFS.SyncWrites != 0 {
		t.Errorf("LFS creat did %d sync writes, want 0", res.LFS.SyncWrites)
	}
	if res.LFS.Writes > 3 {
		t.Errorf("LFS creat issued %d transfers, want <= 3 (one large write)", res.LFS.Writes)
	}
	if res.LFS.BytesWritten < 8*1024 {
		t.Errorf("LFS wrote only %d bytes", res.LFS.BytesWritten)
	}
	// FFS's writes are small and scattered; LFS's single transfer
	// is larger than any individual FFS write.
	maxFFS := int64(0)
	for _, ev := range res.FFSEvents {
		if n := int64(ev.Sectors) * 512; n > maxFFS {
			maxFFS = n
		}
	}
	minSeeks := res.FFS.Seeks
	if minSeeks < 4 {
		t.Errorf("FFS trace shows %d seeks, want >= 4 (random writes)", minSeeks)
	}

	// The summary and the table on a hand-built trace, where every
	// count is known.
	events := []disk.Event{
		{Kind: disk.OpWrite, Sector: 0, Sectors: 8, Sync: true, Label: "dir data"},
		{Kind: disk.OpWrite, Sector: 8, Sectors: 8, Sequential: true, Label: "data"},
		{Kind: disk.OpRead, Sector: 0, Sectors: 8, Sync: true, Label: "read"},
	}
	want := TraceSummary{Reads: 1, Writes: 2, SyncWrites: 1, SeqWrites: 1,
		BytesRead: 8 * 512, BytesWritten: 2 * 8 * 512, Seeks: 2}
	if s := summarizeTrace(events); s != want || !strings.Contains(s.String(), "writes=2") {
		t.Errorf("summary = %+v (%v), want %+v", s, s, want)
	}
	if s := summarizeTrace(nil); s != (TraceSummary{}) {
		t.Errorf("empty summary = %+v", s)
	}
	table := formatTraceTable(events[:1])
	if lines := strings.Split(strings.TrimSpace(table), "\n"); len(lines) != 2 ||
		!strings.Contains(lines[1], "dir data") || !strings.Contains(lines[1], "write") {
		t.Errorf("table of one event, want header + 1 row naming it:\n%s", table)
	}
}

func TestFig3Shape(t *testing.T) {
	opts := DefaultFig3Opts()
	opts.Capacity = 64 << 20
	opts.Files1K = 1500
	opts.Files10K = 300
	rows, err := Fig3(opts)
	if err != nil {
		t.Fatal(err)
	}
	get := func(fs string, size int) Fig3Row {
		for _, r := range rows {
			if r.FS == fs && r.FileSize == size {
				return r
			}
		}
		t.Fatalf("missing row %s/%d", fs, size)
		return Fig3Row{}
	}
	for _, size := range []int{1024, 10240} {
		l, f := get("LFS", size), get("SunFFS", size)
		// Paper: "order-of-magnitude speedup" on create and delete.
		// The gap narrows as file size grows (LFS becomes
		// bandwidth-bound while FFS amortises its synchronous
		// writes over more data), so the 10 KB bar is lower.
		minCreate := 5.0
		if size > 4096 {
			minCreate = 3.0
		}
		if ratio := l.CreatePS / f.CreatePS; ratio < minCreate {
			t.Errorf("%dB create: LFS/FFS = %.1fx, want >= %.0fx (paper: ~10x for 1K)", size, ratio, minCreate)
		}
		if ratio := l.DeletePS / f.DeletePS; ratio < 5 {
			t.Errorf("%dB delete: LFS/FFS = %.1fx, want >= 5x (paper: ~10x)", size, ratio)
		}
		// Paper: "the read performance of LFS is excellent" —
		// matches or exceeds SunOS (files packed in segments).
		if ratio := l.ReadPS / f.ReadPS; ratio < 0.8 {
			t.Errorf("%dB read: LFS at %.2fx of FFS, want >= 0.8x", size, ratio)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	opts := DefaultFig4Opts()
	opts.Capacity = 100 << 20
	opts.FileSize = 24 << 20
	rows, err := Fig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	rate := func(fs, phase string) float64 {
		for _, r := range rows {
			if r.FS == fs && r.Phase == phase {
				return r.KBps
			}
		}
		t.Fatalf("missing row %s/%s", fs, phase)
		return 0
	}
	// LFS sequential write approaches disk bandwidth (1.3 MB/s ≈
	// 1300 KB/s).
	if v := rate("LFS", "seq write"); v < 900 {
		t.Errorf("LFS seq write = %.0f KB/s, want near disk bandwidth (>900)", v)
	}
	// LFS random writes ≈ LFS sequential writes (the log makes them
	// sequential); FFS random writes are far slower than FFS
	// sequential writes.
	if lr, ls := rate("LFS", "rand write"), rate("LFS", "seq write"); lr < 0.7*ls {
		t.Errorf("LFS rand write %.0f much slower than seq write %.0f; log should equalise them", lr, ls)
	}
	if fr, fsq := rate("SunFFS", "rand write"), rate("SunFFS", "seq write"); fr > 0.5*fsq {
		t.Errorf("FFS rand write %.0f not much slower than seq write %.0f; update-in-place should suffer", fr, fsq)
	}
	// LFS wins random writes big.
	if l, f := rate("LFS", "rand write"), rate("SunFFS", "rand write"); l < 3*f {
		t.Errorf("rand write: LFS %.0f vs FFS %.0f, want LFS >= 3x", l, f)
	}
	// Sequential read after sequential write: comparable.
	if l, f := rate("LFS", "seq read"), rate("SunFFS", "seq read"); l < 0.7*f {
		t.Errorf("seq read: LFS %.0f vs FFS %.0f, want comparable", l, f)
	}
	// The paper's counter-case: sequential reread after random
	// writes favours FFS (update-in-place kept the file contiguous;
	// LFS scattered it through the log).
	if l, f := rate("LFS", "seq reread"), rate("SunFFS", "seq reread"); l >= f {
		t.Errorf("seq reread after random write: LFS %.0f vs FFS %.0f; FFS should win this one", l, f)
	}
	// Random reads: both random, comparable.
	if l, f := rate("LFS", "rand read"), rate("SunFFS", "rand read"); l < 0.5*f || l > 2*f {
		t.Errorf("rand read: LFS %.0f vs FFS %.0f, want within 2x", l, f)
	}
}

func TestFig5Shape(t *testing.T) {
	opts := Fig5Opts{
		Capacity:     48 << 20,
		NumFiles:     6000,
		Utilizations: []float64{0, 0.25, 0.5, 0.75, 0.9},
	}
	rows, err := Fig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(opts.Utilizations) {
		t.Fatalf("got %d rows", len(rows))
	}
	// Rate must decrease monotonically (with slack) as utilization
	// rises, and the empty-segment rate must be far above the
	// 90%-utilised rate.
	for i := 1; i < len(rows); i++ {
		if rows[i].RateKBps > rows[i-1].RateKBps*1.15 {
			t.Errorf("cleaning rate rose from %.0f to %.0f KB/s between u=%.2f and u=%.2f",
				rows[i-1].RateKBps, rows[i].RateKBps, rows[i-1].Utilization, rows[i].Utilization)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.RateKBps < 3*last.RateKBps {
		t.Errorf("cleaning rate at u=0 (%.0f) should dwarf rate at u=0.9 (%.0f)",
			first.RateKBps, last.RateKBps)
	}
	// Nearly nothing should be copied from empty segments; most
	// blocks survive at u=0.9.
	if first.SegmentsCleaned > 0 && first.LiveCopied > first.BlocksExamined/5 {
		t.Errorf("u=0: copied %d of %d blocks", first.LiveCopied, first.BlocksExamined)
	}
	if last.LiveCopied < last.BlocksExamined/2 {
		t.Errorf("u=0.9: copied only %d of %d blocks", last.LiveCopied, last.BlocksExamined)
	}
}

func TestScalingShape(t *testing.T) {
	opts := ScalingOpts{Capacity: 32 << 20, MIPS: []float64{0.9, 14}, Files: 100}
	rows, err := Scaling(opts)
	if err != nil {
		t.Fatal(err)
	}
	get := func(fs string, mips float64) float64 {
		for _, r := range rows {
			if r.FS == fs && r.MIPS == mips {
				return r.PerFileMs
			}
		}
		t.Fatalf("missing %s@%v", fs, mips)
		return 0
	}
	// Paper §3.1: a 15.5x CPU gets FFS only ~20% faster (we allow
	// up to 2.5x — our FFS path has more CPU content per create
	// than an empty 1990 creat); LFS should speed up by several
	// times.
	ffsGain := get("SunFFS", 0.9) / get("SunFFS", 14)
	lfsGain := get("LFS", 0.9) / get("LFS", 14)
	if ffsGain > 2.5 {
		t.Errorf("FFS sped up %.1fx with a 15.5x CPU; sync writes should cap the gain", ffsGain)
	}
	if lfsGain < 4.0 {
		t.Errorf("LFS sped up only %.1fx with a 15.5x CPU; it should scale with CPU", lfsGain)
	}
	if lfsGain < 2*ffsGain {
		t.Errorf("LFS gain %.1fx not clearly above FFS gain %.1fx", lfsGain, ffsGain)
	}
}

func TestRecoveryShape(t *testing.T) {
	opts := RecoveryOpts{Capacities: []int64{32 << 20, 128 << 20}, Files: 120}
	rows, err := Recovery(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// LFS recovery must beat the fsck scan everywhere. On
		// small disks roll-forward (bounded by the crash damage,
		// here ~half the workload) dominates LFS's mount time, so
		// the gap is modest; it widens with disk size.
		if r.LFSMountMs*2 > r.FFSFsckMs {
			t.Errorf("disk %dMB: LFS mount %.1fms vs fsck %.1fms, want >= 2x gap",
				r.CapacityMB, r.LFSMountMs, r.FFSFsckMs)
		}
	}
	if last := rows[len(rows)-1]; last.LFSMountMs*5 > last.FFSFsckMs {
		t.Errorf("disk %dMB: LFS mount %.1fms vs fsck %.1fms, want >= 5x gap on the large disk",
			last.CapacityMB, last.LFSMountMs, last.FFSFsckMs)
	}
	// fsck cost grows with disk size; LFS mount should not.
	small, large := rows[0], rows[1]
	if large.FFSFsckMs < 2*small.FFSFsckMs {
		t.Errorf("fsck on 4x disk only grew from %.1f to %.1f ms", small.FFSFsckMs, large.FFSFsckMs)
	}
	if large.LFSMountMs > 4*small.LFSMountMs+100 {
		t.Errorf("LFS mount grew with disk size: %.1f -> %.1f ms", small.LFSMountMs, large.LFSMountMs)
	}
}

func TestUtilizationDistributionShape(t *testing.T) {
	opts := UtilizationOpts{Capacity: 32 << 20}
	opts.Office = DefaultUtilizationOpts().Office
	opts.Office.Ops = 12000
	opts.Office.TargetFiles = 2500
	opts.Office.MeanLifetimeOps = 3000
	res, err := UtilizationDistribution(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Fatal("no dirty segments sampled")
	}
	if res.CleanerStats.CleanerRuns == 0 {
		t.Fatal("office trace never wrapped the log (no cleaning)")
	}
	// The paper conjectures the distribution's mean equals the
	// overall disk utilization; with a greedy cleaner continuously
	// harvesting the emptiest segments, the surviving segments are
	// in fact *above* the disk utilization (the skew the authors'
	// follow-up work documents). Assert the measured relationship.
	if res.MeanSegmentUtil < res.DiskUtil*0.9 {
		t.Errorf("mean segment utilization %.2f far below disk utilization %.2f",
			res.MeanSegmentUtil, res.DiskUtil)
	}
	if res.MeanSegmentUtil <= 0 || res.MeanSegmentUtil > 1 {
		t.Errorf("mean segment utilization %.2f out of range", res.MeanSegmentUtil)
	}
	// The distribution has spread (not all segments identical).
	nonEmpty := 0
	for _, n := range res.Histogram {
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("utilization histogram has no spread: %v", res.Histogram)
	}
}

func TestCheckpointAblationShape(t *testing.T) {
	opts := DefaultCkptOpts()
	opts.Capacity = 32 << 20
	opts.Office.Ops = 2000
	opts.Office.TargetFiles = 600
	opts.Office.MeanLifetimeOps = 800
	opts.Intervals = []sim.Duration{5 * sim.Second, 30 * sim.Second, 120 * sim.Second}
	rows, err := CheckpointAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The vulnerability window (files lost at a crash) grows with
	// the interval; with roll-forward disabled everything in the
	// window dies.
	for i := 1; i < len(rows); i++ {
		if rows[i].LostFiles <= rows[i-1].LostFiles {
			t.Errorf("interval %.0fs lost %d files, %.0fs lost %d; loss should grow with the interval",
				rows[i].IntervalSec, rows[i].LostFiles, rows[i-1].IntervalSec, rows[i-1].LostFiles)
		}
		if rows[i].LostFiles != rows[i].LiveFiles {
			t.Errorf("interval %.0fs: %d of %d window files survived without roll-forward",
				rows[i].IntervalSec, rows[i].LiveFiles-rows[i].LostFiles, rows[i].LiveFiles)
		}
	}
	// Checkpointing more often must not cost much throughput (the
	// paper's 30s default is cheap).
	first, last := rows[0], rows[len(rows)-1]
	if first.ThroughputOpsSec < 0.7*last.ThroughputOpsSec {
		t.Errorf("5s checkpoints cost too much: %.1f vs %.1f ops/s",
			first.ThroughputOpsSec, last.ThroughputOpsSec)
	}
}
