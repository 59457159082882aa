package workload_test

import (
	"fmt"
	"testing"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/ffs"
	"lfs/internal/sim"
	"lfs/internal/vfs"
	"lfs/internal/workload"
)

func newLFS(t *testing.T, capacity int64) workload.System {
	t.Helper()
	d := disk.NewMem(capacity, sim.NewClock())
	cfg := core.DefaultConfig()
	cfg.MaxInodes = 8192
	if err := core.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func newFFS(t *testing.T, capacity int64) workload.System {
	t.Helper()
	d := disk.NewMem(capacity, sim.NewClock())
	cfg := ffs.DefaultConfig()
	if err := ffs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestSmallFileRunsOnBothSystems(t *testing.T) {
	for _, tc := range []struct {
		name string
		sys  workload.System
	}{
		{"LFS", newLFS(t, 32<<20)},
		{"FFS", newFFS(t, 32<<20)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := workload.SmallFile(tc.sys, workload.SmallFileOpts{
				NumFiles: 200, FileSize: 1024, Dir: "/s", Seed: 42,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []workload.Phase{res.Create, res.Read, res.Delete} {
				if p.Ops != 200 {
					t.Errorf("%s phase ops = %d", p.Name, p.Ops)
				}
				if p.Duration <= 0 {
					t.Errorf("%s phase took no simulated time", p.Name)
				}
				if p.OpsPerSec() <= 0 {
					t.Errorf("%s phase rate = %v", p.Name, p.OpsPerSec())
				}
				if p.String() == "" {
					t.Error("empty phase string")
				}
			}
		})
	}
}

func TestSmallFileValidation(t *testing.T) {
	sys := newLFS(t, 16<<20)
	if _, err := workload.SmallFile(sys, workload.SmallFileOpts{}); err == nil {
		t.Fatal("zero opts accepted")
	}
}

func TestDefaultOptsMatchPaper(t *testing.T) {
	o1 := workload.DefaultSmallFile1K()
	if o1.NumFiles != 10000 || o1.FileSize != 1024 {
		t.Errorf("1K opts = %+v", o1)
	}
	// The paper creates "10 megabytes of small files".
	if total := int64(o1.NumFiles) * int64(o1.FileSize); total < 9<<20 || total > 11<<20 {
		t.Errorf("configuration totals %d bytes, want ~10MB", total)
	}
	lf := workload.DefaultLargeFile()
	if lf.FileSize != 100<<20 || lf.RequestSize != 8192 {
		t.Errorf("large-file opts = %+v", lf)
	}
}

func TestLargeFileRuns(t *testing.T) {
	sys := newLFS(t, 48<<20)
	res, err := workload.LargeFile(sys, workload.LargeFileOpts{
		FileSize: 8 << 20, RequestSize: 8192, Path: "/big", Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	phases := res.Phases()
	if len(phases) != 5 {
		t.Fatalf("%d phases", len(phases))
	}
	names := []string{"seq write", "seq read", "rand write", "rand read", "seq reread"}
	for i, p := range phases {
		if p.Name != names[i] {
			t.Errorf("phase %d = %q, want %q", i, p.Name, names[i])
		}
		if p.KBPerSec() <= 0 {
			t.Errorf("phase %s rate 0", p.Name)
		}
		if p.Bytes != 8<<20 {
			t.Errorf("phase %s moved %d bytes", p.Name, p.Bytes)
		}
	}
}

func TestLargeFileValidation(t *testing.T) {
	sys := newLFS(t, 16<<20)
	if _, err := workload.LargeFile(sys, workload.LargeFileOpts{FileSize: 100, RequestSize: 8192, Path: "/x"}); err == nil {
		t.Fatal("non-multiple file size accepted")
	}
}

func TestFragmentProducesTargetUtilization(t *testing.T) {
	sys := newLFS(t, 32<<20)
	lfs := sys.(*core.FS)
	if err := workload.Fragment(sys, workload.FragmentOpts{
		NumFiles: 2000, FileSize: 1024, KeepFraction: 0.5, Dir: "/frag", Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// Roughly half the files should remain.
	entries, err := sys.ReadDir("/frag")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(entries); n < 900 || n > 1100 {
		t.Fatalf("%d of 2000 files survived, want ~1000", n)
	}
	// Live bytes should be around half the written data.
	if live := lfs.LiveBytes(); live <= 0 {
		t.Fatal("no live bytes recorded")
	}
}

func TestFragmentExtremes(t *testing.T) {
	for _, keep := range []float64{0, 1} {
		sys := newLFS(t, 32<<20)
		if err := workload.Fragment(sys, workload.FragmentOpts{
			NumFiles: 300, FileSize: 1024, KeepFraction: keep, Dir: "/frag", Seed: 1,
		}); err != nil {
			t.Fatalf("keep=%v: %v", keep, err)
		}
		entries, err := sys.ReadDir("/frag")
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if keep == 1 {
			want = 300
		}
		if len(entries) != want {
			t.Fatalf("keep=%v: %d files survived, want %d", keep, len(entries), want)
		}
		// The scripts' names are f%06d, built once a run: the figures'
		// directory sizes depend on their length.
		for i, e := range entries {
			if name := fmt.Sprintf("f%06d", i); e.Name != name {
				t.Fatalf("keep=%v: entry %d is %q, want %q", keep, i, e.Name, name)
			}
		}
	}
}

func TestPhaseMath(t *testing.T) {
	p := workload.Phase{Name: "x", Ops: 100, Bytes: 1 << 20, Duration: 2 * sim.Second}
	if p.OpsPerSec() != 50 {
		t.Errorf("OpsPerSec = %v", p.OpsPerSec())
	}
	if p.KBPerSec() != 512 {
		t.Errorf("KBPerSec = %v", p.KBPerSec())
	}
	zero := workload.Phase{}
	if zero.OpsPerSec() != 0 || zero.KBPerSec() != 0 {
		t.Error("zero-duration phase produced non-zero rates")
	}
}

func TestOfficeTraceRuns(t *testing.T) {
	sys := newLFS(t, 64<<20)
	opts := workload.DefaultOffice()
	opts.Ops = 3000
	opts.TargetFiles = 800
	opts.MeanLifetimeOps = 1000
	res, err := workload.Office(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Creates == 0 || res.Reads == 0 || res.Overwrites == 0 || res.Deletes == 0 {
		t.Fatalf("trace lacks op diversity: %+v", res)
	}
	if res.Elapsed.Duration <= 0 {
		t.Fatal("trace took no simulated time")
	}
	// Population stays bounded near the target.
	bytes, files, _, err := countTree(sys)
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 || files > opts.TargetFiles*2 {
		t.Fatalf("final population %d, target %d", files, opts.TargetFiles)
	}
	if bytes == 0 {
		t.Fatal("no live bytes at end of trace")
	}
}

func TestOfficeTraceDeterministic(t *testing.T) {
	run := func() workload.OfficeResult {
		sys := newLFS(t, 32<<20)
		opts := workload.DefaultOffice()
		opts.Ops = 1500
		opts.TargetFiles = 400
		opts.MeanLifetimeOps = 500
		res, err := workload.Office(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different traces:\n%+v\n%+v", a, b)
	}
}

func TestOfficeValidation(t *testing.T) {
	sys := newLFS(t, 16<<20)
	if _, err := workload.Office(sys, workload.OfficeOpts{}); err == nil {
		t.Fatal("zero office opts accepted")
	}
}

// countTree tallies the file population via the vfs walk helper.
func countTree(sys workload.System) (int64, int, int, error) {
	return vfs.TreeSize(sys, "/")
}
