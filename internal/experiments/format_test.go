package experiments

import (
	"strings"
	"testing"
)

// These tests pin the formatting layer: every table renderer must
// produce a header plus one row per input, with the values visible.

func TestFormatFig3(t *testing.T) {
	rows := []Fig3Row{
		{FS: "LFS", FileSize: 1024, NumFiles: 10, CreatePS: 111.5, ReadPS: 222.5, DeletePS: 333.5},
		{FS: "SunFFS", FileSize: 10240, NumFiles: 5, CreatePS: 1, ReadPS: 2, DeletePS: 3},
	}
	out := FormatFig3(rows)
	for _, want := range []string{"Figure 3", "LFS", "SunFFS", "111.5", "333.5", "1K", "10K"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFig3 missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 4 {
		t.Errorf("FormatFig3 has %d lines, want 4", lines)
	}
}

func TestFormatFig4(t *testing.T) {
	rows := []Fig4Row{
		{FS: "LFS", Phase: "seq write", KBps: 1200},
		{FS: "SunFFS", Phase: "seq write", KBps: 800},
		{FS: "LFS", Phase: "rand write", KBps: 1100},
		{FS: "SunFFS", Phase: "rand write", KBps: 300},
	}
	out := FormatFig4(rows)
	for _, want := range []string{"Figure 4", "seq write", "rand write", "1200", "300"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFig4 missing %q:\n%s", want, out)
		}
	}
	// One row per phase, not per (fs, phase).
	if lines := strings.Count(out, "\n"); lines != 4 {
		t.Errorf("FormatFig4 has %d lines, want 4", lines)
	}
}

func TestFormatFig5(t *testing.T) {
	rows := []Fig5Row{
		{Utilization: 0, RateKBps: 1000, SegmentsCleaned: 10},
		{Utilization: 0.9, RateKBps: 80, SegmentsCleaned: 9, LiveCopied: 2000},
	}
	out := FormatFig5(rows)
	for _, want := range []string{"Figure 5", "0.00", "0.90", "1000", "80"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFig5 missing %q:\n%s", want, out)
		}
	}
}

func TestFormatScaling(t *testing.T) {
	rows := []ScalingRow{
		{FS: "LFS", MIPS: 0.9, PerFileMs: 36.7},
		{FS: "SunFFS", MIPS: 14, PerFileMs: 65.3},
	}
	out := FormatScaling(rows)
	for _, want := range []string{"3.1", "36.70", "65.30", "0.9", "14.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatScaling missing %q:\n%s", want, out)
		}
	}
}

func TestFormatRecovery(t *testing.T) {
	rows := []RecoveryRow{{CapacityMB: 300, LFSMountMs: 626.1, FFSFsckMs: 10988.9, LFSRollForwardUnits: 3}}
	out := FormatRecovery(rows)
	for _, want := range []string{"4.4", "300", "626.1", "10988.9"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatRecovery missing %q:\n%s", want, out)
		}
	}
}

func TestFormatAblations(t *testing.T) {
	seg := FormatSegSize([]SegSizeRow{{SegmentKB: 1024, WriteKBps: 1204, CreatePS: 242}})
	if !strings.Contains(seg, "1024KB") || !strings.Contains(seg, "1204") {
		t.Errorf("FormatSegSize:\n%s", seg)
	}
	ck := FormatCkpt([]CkptRow{{IntervalSec: 30, Checkpoints: 3, ThroughputOpsSec: 84.7, LiveFiles: 57, LostFiles: 57, MountMs: 45.2}})
	if !strings.Contains(ck, "vulnerability") || !strings.Contains(ck, "57") {
		t.Errorf("FormatCkpt:\n%s", ck)
	}
}

func TestFormatUtilizationRendering(t *testing.T) {
	r := &UtilizationResult{Samples: 3, MeanSegmentUtil: 0.7, DiskUtil: 0.6}
	r.Histogram[6] = 2
	r.Histogram[9] = 1
	out := FormatUtilization(r)
	for _, want := range []string{"5.3", "60%- 70%", "0.70", "0.60", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatUtilization missing %q:\n%s", want, out)
		}
	}
}

func TestFig1FormatRendering(t *testing.T) {
	res, err := Fig1(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format()
	for _, want := range []string{"Figure 1", "Figure 2", "creat: inode", "segment write", "summary:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 format missing %q", want)
		}
	}
}

func TestCSVWriters(t *testing.T) {
	check := func(name string, write func(w *strings.Builder) error, wantHeader string, wantRows int) {
		t.Helper()
		var b strings.Builder
		if err := write(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(b.String()), "\n")
		if lines[0] != wantHeader {
			t.Errorf("%s header = %q, want %q", name, lines[0], wantHeader)
		}
		if len(lines)-1 != wantRows {
			t.Errorf("%s has %d rows, want %d", name, len(lines)-1, wantRows)
		}
	}
	check("fig3", func(w *strings.Builder) error {
		return CSVFig3(w, []Fig3Row{{FS: "LFS", FileSize: 1024, NumFiles: 10, CreatePS: 1.5}})
	}, "fs,file_size,files,create_per_s,read_per_s,delete_per_s", 1)
	check("fig4", func(w *strings.Builder) error {
		return CSVFig4(w, []Fig4Row{{FS: "LFS", Phase: "seq write", KBps: 1}, {FS: "SunFFS", Phase: "seq write", KBps: 2}})
	}, "fs,phase,kb_per_s", 2)
	check("fig5", func(w *strings.Builder) error {
		return CSVFig5(w, []Fig5Row{{Utilization: 0.5, RateKBps: 100}})
	}, "utilization,clean_kb_per_s,segments,live_copied,examined", 1)
	check("scaling", func(w *strings.Builder) error {
		return CSVScaling(w, []ScalingRow{{FS: "LFS", MIPS: 10, PerFileMs: 3}})
	}, "fs,mips,ms_per_file", 1)
	check("recovery", func(w *strings.Builder) error {
		return CSVRecovery(w, []RecoveryRow{{CapacityMB: 64, LFSMountMs: 1, FFSFsckMs: 2}})
	}, "disk_mb,lfs_mount_ms,rolled_forward_units,ffs_fsck_ms", 1)
	check("segsize", func(w *strings.Builder) error {
		return CSVSegSize(w, []SegSizeRow{{SegmentKB: 1024, WriteKBps: 1200, CreatePS: 200}})
	}, "segment_kb,write_kb_per_s,create_per_s", 1)
	check("blocksize", func(w *strings.Builder) error {
		return CSVBlockSize(w, []BlockSizeRow{{BlockSize: 4096, CreatePS: 200, ReadPS: 100, StorageOverhead: 4}})
	}, "block_size,create_per_s,read_per_s,live_bytes_per_user_byte", 1)
	check("ckpt", func(w *strings.Builder) error {
		return CSVCkpt(w, []CkptRow{{IntervalSec: 30, Checkpoints: 2}})
	}, "interval_s,checkpoints,trace_ops_per_s,files_lost,window_files,mount_ms", 1)
	check("utilization", func(w *strings.Builder) error {
		r := &UtilizationResult{}
		r.Histogram[3] = 5
		return CSVUtilization(w, []*UtilizationResult{r, r})
	}, "policy,bin_low_pct,bin_high_pct,segments", 20)

	// The same over the experiment table: every row runs once, at the
	// scale lfsbench runs it, and its Result is held to what lfsbench's
	// loop relies on — a report, a summary exactly where the row names
	// a baseline, and a CSV whose header appears once (utilization used
	// to repeat it per policy, mid-file, where it parses as data).
	// Skipped under -short: this is the twenty seconds of `lfsbench
	// -experiment all`, which the race detector stretches fifteen-fold.
	if testing.Short() {
		return
	}
	for _, e := range Table {
		t.Run(e.Name, func(t *testing.T) {
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasSuffix(res.Text, "\n") {
				t.Errorf("report does not end in a newline: %q", res.Text)
			}
			if (res.Bench != nil) != (e.Bench != "") {
				t.Errorf("summary present = %v, but the row names baseline %q", res.Bench != nil, e.Bench)
			}
			if res.Bench != nil && res.Bench["experiment"] != e.Name {
				t.Errorf("summary is labelled %v", res.Bench["experiment"])
			}
			if res.CSV == nil {
				return
			}
			var b strings.Builder
			if err := res.CSV(&b); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(b.String()), "\n")
			if len(lines) < 2 {
				t.Fatalf("CSV has no data rows:\n%s", b.String())
			}
			for i, line := range lines[1:] {
				if line == lines[0] {
					t.Errorf("CSV header %q repeated at line %d", lines[0], i+2)
				}
			}
		})
	}
}
